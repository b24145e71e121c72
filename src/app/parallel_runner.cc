#include "app/parallel_runner.hh"

namespace cohmeleon::app
{

std::uint64_t
experimentSeed(std::uint64_t base, std::uint64_t index)
{
    // One SplitMix64 step over a golden-ratio-spaced input: distinct
    // indices land in well-separated regions of the seed space.
    std::uint64_t z = base + (index + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace cohmeleon::app
