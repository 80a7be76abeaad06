/**
 * @file
 * The deterministic clone fan-out engine.
 *
 * Every parallel section in this repository follows one convention so
 * that pooled output is bit-identical to serial output at any thread
 * count:
 *
 *   1. clones are created *serially*, each with a
 *      rebindKnobTable()-copied knob table when a session will run
 *      on it (the fleet server's tenants are the exception: each
 *      clones on the worker that runs its first slice, which
 *      App::clone()'s concurrency contract allows);
 *   2. dispatch is `threads == 1 ? serial loop :
 *      ThreadPool(min(threads, tasks))`, with threads == 0 meaning
 *      all hardware contexts;
 *   3. results land in pre-sized slots indexed by task and are merged
 *      in fixed task order, never in completion order;
 *   4. a task that throws drains the in-flight tasks and rethrows the
 *      first exception (core::ThreadPool's semantics), so the engine
 *      never hangs and the caller sees the same exception serially
 *      and pooled.
 *
 * The FanoutEngine holds that convention in one place. Calibration,
 * consolidation replays, the fleet server's tenant slices, and the
 * figure-6/7 benches all fan out through it instead of hand-rolling
 * the preamble.
 */
#ifndef POWERDIAL_CORE_FANOUT_H
#define POWERDIAL_CORE_FANOUT_H

#include <cstddef>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/app.h"
#include "core/knob.h"
#include "core/thread_pool.h"

namespace powerdial::core {

/**
 * Rebind a knob table onto another instance of the same application
 * (typically an App::clone()): copies every recorded control-variable
 * value and lets @p app install its own write bindings. The building
 * block for running sessions on cloned applications in parallel.
 */
KnobTable rebindKnobTable(const KnobTable &source, App &app);

/**
 * One fan-out domain: resolves a thread-count option once, owns the
 * pool (if any) for its whole lifetime, and dispatches any number of
 * indexed jobs over it. Reusing one engine across jobs (calibration's
 * baseline pass then sweep; the fleet server's per-epoch slices)
 * amortises worker start-up without changing output: results never
 * depend on which worker ran which task.
 */
class FanoutEngine
{
  public:
    /**
     * @param threads   1 = serial (no pool, the default convention),
     *                  0 = all hardware contexts, N > 1 = exactly N
     *                  workers.
     * @param max_tasks Largest job this engine will dispatch; a
     *                  nonzero value caps the worker count (no point
     *                  in more workers — each typically owning a full
     *                  application clone — than tasks to claim).
     *                  0 = unknown, don't cap.
     */
    explicit FanoutEngine(std::size_t threads, std::size_t max_tasks = 0);

    /** True when dispatch runs on the caller's thread (no pool). */
    bool serial() const { return !pool_.has_value(); }

    /** Worker count: 1 when serial, the pool size otherwise. */
    std::size_t workers() const
    {
        return pool_.has_value() ? pool_->size() : 1;
    }

    /**
     * Run fn(task, worker) for every task in [0, tasks). Serial (or
     * single-task) jobs run ascending on the caller's thread with
     * worker == 0; pooled jobs distribute over the workers in claim
     * order. Either way the caller merges results by task index, so
     * output is identical.
     */
    void run(std::size_t tasks, const ThreadPool::Task &fn);

    /**
     * Fan-out-and-merge convenience: returns {fn(0), ..., fn(tasks-1)}
     * with each result in its task's pre-sized slot — the fixed-order
     * merge of the convention, independent of execution order. The
     * result type must not be bool (std::vector<bool> packs bits, so
     * concurrent per-task slot writes would race); wrap flags in a
     * struct or use run() with a caller-owned array instead.
     */
    template <typename Fn>
    auto
    map(std::size_t tasks, Fn &&fn)
        -> std::vector<decltype(fn(std::size_t{}, std::size_t{}))>
    {
        using Result = decltype(fn(std::size_t{}, std::size_t{}));
        static_assert(!std::is_same_v<Result, bool>,
                      "FanoutEngine::map: bool results would land in "
                      "a bit-packed std::vector<bool>, racing under "
                      "the pooled path");
        std::vector<Result> results(tasks);
        run(tasks, [&](std::size_t task, std::size_t worker) {
            results[task] = fn(task, worker);
        });
        return results;
    }

    /**
     * Serially create @p count private clones of @p app — one per
     * task, or one per worker (pass workers()) when tasks share
     * per-worker state.
     */
    static std::vector<std::unique_ptr<App>> cloneApps(const App &app,
                                                       std::size_t count);

    /** One private clone per pool worker (a single clone when serial). */
    std::vector<std::unique_ptr<App>>
    workerClones(const App &app) const
    {
        return cloneApps(app, workers());
    }

    /** Clones paired with rebound knob tables, indexed together. */
    struct BoundClones
    {
        std::vector<std::unique_ptr<App>> apps;
        std::vector<KnobTable> tables;

        std::size_t size() const { return apps.size(); }
    };

    /**
     * Serially create @p count private clones of @p app, each bound to
     * its own rebindKnobTable() copy of @p table — the full session
     * fan-out preamble.
     */
    static BoundClones cloneBound(const App &app, const KnobTable &table,
                                  std::size_t count);

  private:
    std::optional<ThreadPool> pool_;
};

} // namespace powerdial::core

#endif // POWERDIAL_CORE_FANOUT_H
