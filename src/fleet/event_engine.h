/**
 * @file
 * The fleet engine: one deterministic discrete-event core behind
 * every Server::serve.
 *
 *   - a priority queue of typed events — job arrivals, beat-quantum
 *     expiries, job completions, lease rewrites (arbitration), trace
 *     samples — ordered by (virtual time, stable sequence id), so
 *     execution order is total and independent of thread count;
 *   - tenant advancement *between* events through core::FanoutEngine's
 *     fixed-order merge (the only parallel section).
 *
 * ServerOptions::engine picks the schedule the queue runs. Under
 * EngineMode::Epoch it holds only epoch-cadence events — release,
 * admit and arbitrate at each epoch top, account at each epoch end,
 * every tenant advanced one epoch slice in between — the synchronous
 * round schedule of the paper's fleet experiments (section 5.5).
 * Under EngineMode::Event arbitration fires on state changes
 * (admissions, completions) rather than on the epoch clock, and the
 * epoch cadence survives only as a periodic event source (trace
 * samples, the default quantum), so an idle fleet costs no events.
 * tests/test_fleet_event_engine.cc pins the epoch schedule to golden
 * report digests over dozens of randomized scenarios.
 */
#ifndef POWERDIAL_FLEET_EVENT_ENGINE_H
#define POWERDIAL_FLEET_EVENT_ENGINE_H

#include <vector>

#include "fleet/server.h"

namespace powerdial::fleet {

/**
 * Serve @p offers (jobs offered per epoch, with tenant/class/deadline
 * metadata) on the schedule ServerOptions::engine selects. Called by
 * Server::serve; callers normally go through Server rather than this
 * entry point. Same contract as
 * Server::serve: app, table, and model must outlive the call, and the
 * caller's app instance is never run.
 */
FleetReport
serveEventDriven(const core::App &app, const core::KnobTable &table,
                 const core::ResponseModel &model,
                 const ServerOptions &options,
                 const std::vector<std::vector<workload::OfferedJob>>
                     &offers);

} // namespace powerdial::fleet

#endif // POWERDIAL_FLEET_EVENT_ENGINE_H
