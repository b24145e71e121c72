#include "mem/dram.hh"

#include "sim/logging.hh"

namespace cohmeleon::mem
{

DramController::DramController(std::string name, DramParams params)
    : name_(std::move(name)), params_(params), channel_(name_ + ".channel")
{
    fatalIf(params_.rowBytes == 0, "row size must be positive");
    rowShift_ = powerOfTwoShift(params_.rowBytes);
}

void
DramController::accessRun(Cycles first, Cycles stride,
                          const Addr *addrs, unsigned n, bool isWrite,
                          Cycles *done)
{
    const Cycles lineService = params_.lineService;
    const Cycles rowMissPenalty = params_.rowMissPenalty;
    Addr openRow = openRow_;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    Server::Run channel(channel_);
    Cycles now = first;
    for (unsigned i = 0; i < n; ++i) {
        const Addr row = rowOf(addrs[i]);
        Cycles service = lineService;
        if (row != openRow) {
            service += rowMissPenalty;
            ++rowMisses;
            openRow = row;
        } else {
            ++rowHits;
        }
        done[i] = channel.finishAfter(now, service);
        now += stride;
    }
    channel.commit();
    openRow_ = openRow;
    rowHits_ += rowHits;
    rowMisses_ += rowMisses;
    if (isWrite)
        writes_ += n;
    else
        reads_ += n;
}

void
DramController::reset()
{
    channel_.reset();
    openRow_ = ~Addr{0};
    reads_ = 0;
    writes_ = 0;
    rowHits_ = 0;
    rowMisses_ = 0;
}

} // namespace cohmeleon::mem
