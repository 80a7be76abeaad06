/**
 * @file
 * The benchmark's own synthetic tenant, frozen here so that edits to
 * the repository's bench helpers cannot move the benchmark: one knob
 * k with values {1, 2, 4}, speedup exactly k, QoS loss exactly 1% per
 * unit of k - 1, and 40 beats per job. Tenant work is near zero, so a
 * serve of these jobs measures the fleet layers, not the payload.
 */
#ifndef POWERDIAL_PERFBENCH_MICROSIM_H
#define POWERDIAL_PERFBENCH_MICROSIM_H

#include <memory>
#include <string>
#include <vector>

#include "core/app.h"
#include "sim/machine.h"

namespace perfbench {

class Microsim final : public powerdial::core::App
{
  public:
    Microsim() : space_({{"k", {1.0, 2.0, 4.0}}}) {}

    std::string name() const override { return "microsim"; }

    std::unique_ptr<powerdial::core::App>
    clone() const override
    {
        return std::make_unique<Microsim>(*this);
    }

    const powerdial::core::KnobSpace &
    knobSpace() const override
    {
        return space_;
    }

    std::size_t defaultCombination() const override { return 0; }

    void
    configure(const std::vector<double> &params) override
    {
        k_ = params.at(0);
    }

    void
    traceRun(powerdial::influence::TraceRun &trace,
             const std::vector<double> &params) override
    {
        using powerdial::influence::Value;
        Value<double> k(params.at(0), powerdial::influence::paramBit(0));
        trace.store("k", k * Value<double>(1.0), "microsim:init");
        trace.firstHeartbeat();
        trace.read("k", "microsim:loop");
    }

    void
    bindControlVariables(powerdial::core::KnobTable &table) override
    {
        table.bind({"k", [this](const std::vector<double> &v) {
                        k_ = v.at(0);
                    }});
    }

    std::size_t inputCount() const override { return 4; }

    std::vector<std::size_t>
    trainingInputs() const override
    {
        return {0, 1};
    }

    std::vector<std::size_t>
    productionInputs() const override
    {
        return {2, 3};
    }

    void
    loadInput(std::size_t index) override
    {
        (void)index;
        produced_ = 0.0;
        units_done_ = 0;
    }

    std::size_t unitCount() const override { return kUnits; }

    void
    processUnit(std::size_t unit, powerdial::sim::Machine &machine) override
    {
        (void)unit;
        machine.execute(kBaseCycles / k_);
        produced_ += 100.0 * (1.0 - 0.01 * (k_ - 1.0));
        ++units_done_;
    }

    powerdial::qos::OutputAbstraction
    output() const override
    {
        const double mean = units_done_ > 0
            ? produced_ / static_cast<double>(units_done_)
            : 0.0;
        return {{mean}, {}};
    }

    static constexpr std::size_t kUnits = 40;
    static constexpr double kBaseCycles = 6.0e5;

  private:
    powerdial::core::KnobSpace space_;
    double k_ = 1.0;
    double produced_ = 0.0;
    std::size_t units_done_ = 0;
};

} // namespace perfbench

#endif // POWERDIAL_PERFBENCH_MICROSIM_H
