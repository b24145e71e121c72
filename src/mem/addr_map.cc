#include "mem/addr_map.hh"

#include "sim/logging.hh"

namespace cohmeleon::mem
{

AddressMap::AddressMap(unsigned numPartitions, std::uint64_t partitionBytes)
    : numPartitions_(numPartitions), partitionBytes_(partitionBytes)
{
    fatalIf(numPartitions == 0, "need at least one memory partition");
    fatalIf(partitionBytes == 0 || partitionBytes % kLineBytes != 0,
            "partition size must be a positive multiple of the line size");
    partShift_ = powerOfTwoShift(partitionBytes);
}

Addr
AddressMap::base(unsigned p) const
{
    panic_if(p >= numPartitions_, "partition ", p, " out of range");
    return static_cast<Addr>(p) * partitionBytes_;
}

} // namespace cohmeleon::mem
