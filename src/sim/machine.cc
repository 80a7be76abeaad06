#include "sim/machine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace powerdial::sim {

Machine::Machine(const Config &config, PowerLog log)
    : scale_(config.scale), power_(config.power), cores_(config.cores),
      speed_factor_(config.speed_factor),
      log_power_(log == PowerLog::Keep)
{
    if (cores_ == 0)
        throw std::invalid_argument("Machine: need at least one core");
    if (speed_factor_ <= 0.0)
        throw std::invalid_argument(
            "Machine: speed factor must be > 0");
}

void
Machine::setPState(std::size_t state)
{
    if (state >= scale_.states())
        throw std::out_of_range("Machine: bad P-state");
    pstate_ = std::max(state, pstate_cap_);
}

void
Machine::setPStateCap(std::size_t state)
{
    if (state >= scale_.states())
        throw std::out_of_range("Machine: bad P-state cap");
    pstate_cap_ = state;
    if (pstate_ < pstate_cap_)
        pstate_ = pstate_cap_;
}

void
Machine::account(double dt, double watts)
{
    if (dt <= 0.0)
        return;
    const double t0 = clock_.now();
    clock_.advance(dt);
    energy_j_ += watts * dt;
    if (!log_power_)
        return;
    if (!trace_.empty() && trace_.back().watts == watts &&
        trace_.back().end_s == t0) {
        trace_.back().end_s = clock_.now();
    } else {
        trace_.push_back({t0, clock_.now(), watts});
    }
}

void
Machine::setShare(double share)
{
    if (share <= 0.0 || share > 1.0)
        throw std::invalid_argument("Machine: share must be in (0, 1]");
    share_ = share;
}

void
Machine::setUtilization(double utilization)
{
    utilization_ = utilization < 0.0
        ? -1.0
        : std::clamp(utilization, 0.0, 1.0);
}

double
Machine::execute(double cycles)
{
    if (cycles < 0.0)
        throw std::invalid_argument("Machine: negative work");
    if (cycles == 0.0)
        return 0.0;
    const double util = utilization_ >= 0.0
        ? utilization_
        : 1.0 / static_cast<double>(cores_);
    // Multiplying by a speed factor of exactly 1.0 is an IEEE
    // identity, so the default class retires work bit-identically to
    // the pre-heterogeneity machine.
    const double dt = cycles / (effectiveHz() * share_);
    account(dt, power_.watts(frequencyHz(), util));
    return dt;
}

void
Machine::idleFor(double dt)
{
    if (dt < 0.0)
        throw std::invalid_argument("Machine: negative idle time");
    account(dt, power_.watts(frequencyHz(), 0.0));
}

void
Machine::idleUntil(double t)
{
    if (t > clock_.now())
        idleFor(t - clock_.now());
}

const std::vector<PowerSegment> &
Machine::powerTrace() const
{
    if (!log_power_)
        throw std::logic_error("Machine: built without a power log");
    return trace_;
}

double
Machine::meanWatts(double t0, double t1) const
{
    if (!log_power_)
        throw std::logic_error("Machine: built without a power log");
    if (t1 <= t0)
        return 0.0;
    double joules = 0.0;
    for (const auto &seg : trace_) {
        const double lo = std::max(seg.start_s, t0);
        const double hi = std::min(seg.end_s, t1);
        if (hi > lo)
            joules += seg.watts * (hi - lo);
    }
    return joules / (t1 - t0);
}

} // namespace powerdial::sim
