#include "layers.h"

#include <chrono>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

namespace pd = powerdial;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t
nsBetween(Clock::time_point start, Clock::time_point end)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
}

/** Owns one counter slot per thread that ever touched one. */
struct Registry
{
    std::mutex mutex; //!< Guards slots (registration only).
    std::deque<WorkerCounters> slots;
};

Registry &
registry()
{
    static Registry instance;
    return instance;
}

/**
 * The calling thread's slot. The lock is taken once per thread, at its
 * first beat; the deque keeps every slot's address stable.
 */
WorkerCounters &
localCounters()
{
    thread_local WorkerCounters *slot = nullptr;
    if (slot == nullptr) {
        Registry &r = registry();
        const std::lock_guard<std::mutex> lock(r.mutex);
        slot = &r.slots.emplace_back();
    }
    return *slot;
}

class TimedApp final : public pd::core::App
{
  public:
    explicit TimedApp(std::unique_ptr<pd::core::App> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }

    std::unique_ptr<pd::core::App>
    clone() const override
    {
        return std::make_unique<TimedApp>(inner_->clone());
    }

    const pd::core::KnobSpace &
    knobSpace() const override
    {
        return inner_->knobSpace();
    }

    std::size_t
    defaultCombination() const override
    {
        return inner_->defaultCombination();
    }

    void
    configure(const std::vector<double> &params) override
    {
        inner_->configure(params);
    }

    void
    traceRun(pd::influence::TraceRun &trace,
             const std::vector<double> &params) override
    {
        inner_->traceRun(trace, params);
    }

    void
    bindControlVariables(pd::core::KnobTable &table) override
    {
        inner_->bindControlVariables(table);
    }

    std::size_t inputCount() const override { return inner_->inputCount(); }

    std::vector<std::size_t>
    trainingInputs() const override
    {
        return inner_->trainingInputs();
    }

    std::vector<std::size_t>
    productionInputs() const override
    {
        return inner_->productionInputs();
    }

    void loadInput(std::size_t index) override { inner_->loadInput(index); }

    std::size_t unitCount() const override { return inner_->unitCount(); }

    void
    processUnit(std::size_t unit, pd::sim::Machine &machine) override
    {
        const auto start = Clock::now();
        inner_->processUnit(unit, machine);
        const auto end = Clock::now();
        WorkerCounters &counters = localCounters();
        ++counters.unit_calls;
        counters.unit_ns += nsBetween(start, end);
    }

    pd::qos::OutputAbstraction
    output() const override
    {
        return inner_->output();
    }

  private:
    std::unique_ptr<pd::core::App> inner_;
};

class TimedPlacement final : public pd::fleet::PlacementPolicy
{
  public:
    TimedPlacement(std::unique_ptr<pd::fleet::PlacementPolicy> inner,
                   SerialCounters &counters)
        : inner_(std::move(inner)), counters_(&counters)
    {
    }

    std::string name() const override { return inner_->name(); }

    std::size_t
    pick(const pd::sim::Cluster &cluster) const override
    {
        const auto start = Clock::now();
        const std::size_t machine = inner_->pick(cluster);
        record(start);
        return machine;
    }

    std::size_t
    pickAmong(const pd::sim::Cluster &cluster,
              const std::vector<std::size_t> &candidates) const override
    {
        const auto start = Clock::now();
        const std::size_t machine =
            inner_->pickAmong(cluster, candidates);
        record(start);
        return machine;
    }

    void
    bindModel(const pd::core::ResponseModel *model) override
    {
        inner_->bindModel(model);
    }

    std::vector<double>
    candidateCosts(const pd::sim::Cluster &cluster) const override
    {
        return inner_->candidateCosts(cluster);
    }

  private:
    void
    record(Clock::time_point start) const
    {
        ++counters_->placement_calls;
        counters_->placement_ns += nsBetween(start, Clock::now());
    }

    std::unique_ptr<pd::fleet::PlacementPolicy> inner_;
    SerialCounters *counters_;
};

class TimedAdmission final : public pd::fleet::AdmissionPolicy
{
  public:
    TimedAdmission(std::unique_ptr<pd::fleet::AdmissionPolicy> inner,
                   SerialCounters &counters)
        : inner_(std::move(inner)), counters_(&counters)
    {
    }

    std::string name() const override { return inner_->name(); }

    pd::fleet::AdmissionVerdict
    decide(const pd::fleet::OfferedJob &job,
           const pd::fleet::AdmissionContext &context) override
    {
        // Placement calls made inside decide belong to placement.
        const std::uint64_t placement_before = counters_->placement_ns;
        const auto start = Clock::now();
        auto verdict = inner_->decide(job, context);
        const std::uint64_t total = nsBetween(start, Clock::now());
        const std::uint64_t nested =
            counters_->placement_ns - placement_before;
        ++counters_->admission_calls;
        counters_->admission_self_ns += total > nested ? total - nested : 0;
        if (verdict.machine)
            ++counters_->admitted;
        return verdict;
    }

    void
    noteArbitration(const pd::fleet::ArbitrationDecision &decision) override
    {
        inner_->noteArbitration(decision);
    }

    void
    noteCompletion(double observed_s, double predicted_s) override
    {
        inner_->noteCompletion(observed_s, predicted_s);
    }

  private:
    std::unique_ptr<pd::fleet::AdmissionPolicy> inner_;
    SerialCounters *counters_;
};

} // namespace

WorkerCounters
mergeWorkerCounters()
{
    Registry &r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    WorkerCounters total;
    for (const WorkerCounters &slot : r.slots) {
        total.unit_calls += slot.unit_calls;
        total.unit_ns += slot.unit_ns;
        total.gate_calls += slot.gate_calls;
    }
    return total;
}

void
resetWorkerCounters()
{
    Registry &r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    for (WorkerCounters &slot : r.slots)
        slot = WorkerCounters{};
}

std::unique_ptr<pd::core::App>
makeTimedApp(std::unique_ptr<pd::core::App> inner)
{
    return std::make_unique<TimedApp>(std::move(inner));
}

pd::fleet::PlacementFactory
timedPlacement(pd::fleet::PlacementFactory inner, SerialCounters &counters)
{
    if (!inner)
        inner = pd::fleet::makeLeastLoadedPlacement();
    return [inner, &counters]() {
        return std::make_unique<TimedPlacement>(inner(), counters);
    };
}

pd::fleet::AdmissionFactory
timedAdmission(pd::fleet::AdmissionFactory inner, SerialCounters &counters)
{
    if (!inner)
        inner = pd::fleet::makeQueueDepthAdmission();
    return [inner, &counters]() {
        return std::make_unique<TimedAdmission>(inner(), counters);
    };
}

pd::core::BeatGate
countingGate()
{
    return [](pd::core::BeatGateContext &) { ++localCounters().gate_calls; };
}

} // namespace perfbench
