/**
 * @file
 * Deterministic parallel experiment driver.
 *
 * Cohmeleon's figures come from sweeping eight policies across many
 * SoC presets, random apps, and training runs. Each such experiment
 * is an isolated single-threaded simulation with explicit seeds, so
 * the sweep itself is embarrassingly parallel: ParallelRunner fans
 * indexed jobs over a ThreadPool, each job writes only its own
 * pre-sized result slot, and results come back in index order —
 * which makes a parallel sweep bit-identical to the serial loop it
 * replaces (a 1-thread pool *is* the serial loop).
 *
 * Both halves of that contract are machine-checked: the TSan CI leg
 * runs tier-1 under -fsanitize=thread (the publication of job
 * results back to the caller is the ThreadPool mutex hand-off; see
 * ThreadPool::forEachIndex), and the determinism lint
 * (tools/lint_determinism.py) bans the nondeterminism sources —
 * unordered iteration, unsanctioned clocks and RNGs — that could
 * make two widths disagree without ever racing.
 */

#ifndef COHMELEON_APP_PARALLEL_RUNNER_HH
#define COHMELEON_APP_PARALLEL_RUNNER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/thread_pool.hh"

namespace cohmeleon::app
{

/**
 * Derive the seed of experiment @p index from a sweep-level base
 * seed. SplitMix64-style mixing keeps the per-experiment RNG streams
 * statistically independent while remaining a pure function of
 * (base, index) — the property that makes parallel order irrelevant.
 */
std::uint64_t experimentSeed(std::uint64_t base, std::uint64_t index);

/** Indexed fan-out of independent experiments over a thread pool. */
class ParallelRunner
{
  public:
    /** @p threads 0 selects ThreadPool::defaultThreads()
     *  (COHMELEON_THREADS overrides hardware concurrency). */
    explicit ParallelRunner(unsigned threads = 0) : pool_(threads) {}

    /** Worker-thread count (1 means serial execution). */
    unsigned threads() const { return pool_.size() + 1; }

    /** Run @p fn(i) for i in [0, count); blocks until done. */
    void
    forEach(std::size_t count,
            const std::function<void(std::size_t)> &fn)
    {
        pool_.forEachIndex(count, fn);
    }

    /** forEach that collects fn(i) into a vector in index order. */
    template <typename R>
    std::vector<R>
    map(std::size_t count, const std::function<R(std::size_t)> &fn)
    {
        std::vector<R> results(count);
        pool_.forEachIndex(
            count, [&](std::size_t i) { results[i] = fn(i); });
        return results;
    }

  private:
    ThreadPool pool_;
};

} // namespace cohmeleon::app

#endif // COHMELEON_APP_PARALLEL_RUNNER_HH
