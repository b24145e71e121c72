#include "rl/qtable.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace cohmeleon::rl
{

QTable::QTable()
{
    q_.assign(StateTuple::kNumStates, {});
    touched_.assign(StateTuple::kNumStates, {});
    visits_.assign(StateTuple::kNumStates, {});
}

double
QTable::q(unsigned state, unsigned action) const
{
    panic_if(state >= StateTuple::kNumStates || action >= kNumActions,
             "Q-table index out of range");
    return q_[state][action];
}

void
QTable::setQ(unsigned state, unsigned action, double value)
{
    panic_if(state >= StateTuple::kNumStates || action >= kNumActions,
             "Q-table index out of range");
    q_[state][action] = value;
    touched_[state][action] = true;
}

std::uint64_t
QTable::visits(unsigned state, unsigned action) const
{
    panic_if(state >= StateTuple::kNumStates || action >= kNumActions,
             "Q-table index out of range");
    return visits_[state][action];
}

void
QTable::setEntry(unsigned state, unsigned action, double value,
                 std::uint64_t visits)
{
    panic_if(state >= StateTuple::kNumStates || action >= kNumActions,
             "Q-table index out of range");
    q_[state][action] = value;
    visits_[state][action] = visits;
    touched_[state][action] = visits > 0 || value != 0.0;
}

void
QTable::merge(const QTable &other)
{
    merge(other, MergeSpec{});
}

namespace
{

/** Effective mass of an entry visited @p visits times under the
 *  recency discount @p d: the geometric series 1 + d + ... + d^(v-1)
 *  = (1 - d^v) / (1 - d), saturating at 1/(1-d). d = 1 degenerates
 *  to the raw count. */
double
recencyMass(std::uint64_t visits, double d)
{
    if (d >= 1.0)
        return static_cast<double>(visits);
    return (1.0 - std::pow(d, static_cast<double>(visits))) /
           (1.0 - d);
}

} // namespace

void
QTable::merge(const QTable &other, const MergeSpec &spec)
{
    spec.validate();
    // Reward normalization scales the *incoming* shard by its own
    // reward magnitude before the fold; the accumulator is already
    // in normalized space from the earlier folds.
    double scale = 1.0;
    if (spec.kind == MergeSpec::Kind::kRewardNorm) {
        const double maxAbs = other.maxAbsQ();
        if (maxAbs > 0.0)
            scale = maxAbs;
    }
    for (unsigned s = 0; s < StateTuple::kNumStates; ++s) {
        for (unsigned a = 0; a < kNumActions; ++a) {
            const std::uint64_t vo = other.visits_[s][a];
            if (vo == 0)
                continue;
            const std::uint64_t vm = visits_[s][a];
            const double qo = other.q_[s][a] / scale;
            if (vm == 0) {
                q_[s][a] = qo;
            } else {
                double wm = static_cast<double>(vm);
                double wo = static_cast<double>(vo);
                if (spec.kind == MergeSpec::Kind::kRecency) {
                    wm = recencyMass(vm, spec.recencyDiscount);
                    wo = recencyMass(vo, spec.recencyDiscount);
                }
                q_[s][a] = (wm * q_[s][a] + wo * qo) / (wm + wo);
            }
            visits_[s][a] = vm + vo;
            touched_[s][a] = true;
        }
    }
}

double
QTable::maxAbsQ() const
{
    double maxAbs = 0.0;
    for (unsigned s = 0; s < StateTuple::kNumStates; ++s)
        for (unsigned a = 0; a < kNumActions; ++a)
            if (touched_[s][a])
                maxAbs = std::max(maxAbs, std::abs(q_[s][a]));
    return maxAbs;
}

bool
QTable::tried(unsigned state, unsigned action) const
{
    panic_if(state >= StateTuple::kNumStates || action >= kNumActions,
             "Q-table index out of range");
    return touched_[state][action];
}

std::uint64_t
QTable::updatedEntries() const
{
    std::uint64_t n = 0;
    for (const auto &row : touched_)
        for (bool t : row)
            n += t ? 1 : 0;
    return n;
}

std::uint64_t
QTable::totalVisits() const
{
    std::uint64_t n = 0;
    for (const auto &row : visits_)
        for (std::uint64_t v : row)
            n += v;
    return n;
}

bool
QTable::allFinite() const
{
    for (const auto &row : q_)
        for (double v : row)
            if (!std::isfinite(v))
                return false;
    return true;
}

void
QTable::resetToZero()
{
    q_.assign(StateTuple::kNumStates, {});
    touched_.assign(StateTuple::kNumStates, {});
    visits_.assign(StateTuple::kNumStates, {});
}

} // namespace cohmeleon::rl
