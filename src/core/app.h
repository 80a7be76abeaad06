/**
 * @file
 * The application pattern PowerDial targets (paper section 2).
 *
 * PowerDial applications follow a fixed computational pattern:
 *
 *  - Initialization: parse configuration parameters, compute control
 *    variables, store them in the address space.
 *  - Main control loop: per iteration, emit a heartbeat, read one unit
 *    of input, process it (reading the control variables), produce
 *    output.
 *
 * An App exposes that pattern to PowerDial: its knob parameters, its
 * init phase (plain and influence-traced variants), write bindings to
 * its control variables, its unit-structured main loop costed on the
 * simulated machine, and the benchmark-specific output abstraction used
 * by the QoS metric.
 */
#ifndef POWERDIAL_CORE_APP_H
#define POWERDIAL_CORE_APP_H

#include <memory>
#include <string>
#include <vector>

#include "core/knob.h"
#include "influence/trace_run.h"
#include "qos/distortion.h"
#include "sim/machine.h"

namespace powerdial::core {

/** Interface every PowerDial benchmark application implements. */
class App
{
  public:
    virtual ~App() = default;

    /** Benchmark name, e.g. "swaptions". */
    virtual std::string name() const = 0;

    /**
     * Deep-copy this application: an independent instance with the
     * same inputs, knob space, and current configured state that
     * shares no mutable state with the original. Because apps are
     * deterministic, a fixed run on a clone must be bit-identical to
     * the same run on the original — parallel calibration relies on
     * this to hand every worker thread a private instance. The fleet
     * server clones its shared app from several worker threads at
     * once, so clone() must be safe to call concurrently on a const
     * instance (a copy-constructing clone is).
     */
    virtual std::unique_ptr<App> clone() const = 0;

    /** The user-identified configuration parameters and their ranges. */
    virtual const KnobSpace &knobSpace() const = 0;

    /**
     * The combination delivering the highest QoS (the baseline; for the
     * paper's benchmarks this is the default parameter setting).
     */
    virtual std::size_t defaultCombination() const = 0;

    /**
     * Initialization phase: derive and store the control variables from
     * @p params (one value per knob parameter).
     */
    virtual void configure(const std::vector<double> &params) = 0;

    /**
     * Influence-traced mirror of configure() + the main loop's control
     * variable accesses: stores into @p trace during the init phase,
     * then (after trace.firstHeartbeat()) records the loop's reads.
     * Stands in for running the LLVM-instrumented binary.
     */
    virtual void traceRun(influence::TraceRun &trace,
                          const std::vector<double> &params) = 0;

    /**
     * Register write bindings for every control variable, in the same
     * order the traced run stores them.
     */
    virtual void bindControlVariables(KnobTable &table) = 0;

    /** Number of available inputs (training + production). */
    virtual std::size_t inputCount() const = 0;

    /** Indices of the training inputs (paper: random half of the set). */
    virtual std::vector<std::size_t> trainingInputs() const = 0;

    /** Indices of the production (previously unseen) inputs. */
    virtual std::vector<std::size_t> productionInputs() const = 0;

    /**
     * Load input @p index and reset all per-run state (the next run
     * starts from a fresh main loop).
     */
    virtual void loadInput(std::size_t index) = 0;

    /** Main-loop iterations for the loaded input. */
    virtual std::size_t unitCount() const = 0;

    /**
     * Process loop iteration @p unit, costing its work on @p machine
     * (which advances virtual time).
     */
    virtual void processUnit(std::size_t unit, sim::Machine &machine) = 0;

    /**
     * The output abstraction for the completed run over the loaded
     * input (paper section 2.2).
     */
    virtual qos::OutputAbstraction output() const = 0;
};

} // namespace powerdial::core

#endif // POWERDIAL_CORE_APP_H
