#include "fault_model.hh"

#include "sim/checkpoint.hh"

#include "sim/logging.hh"

namespace softwatt
{

const char *
diskIoStatusName(DiskIoStatus status)
{
    switch (status) {
      case DiskIoStatus::Ok: return "ok";
      case DiskIoStatus::TransientError: return "transient-error";
      case DiskIoStatus::SeekError: return "seek-error";
      case DiskIoStatus::SpinupFailure: return "spinup-failure";
    }
    panic("diskIoStatusName: invalid status");
}

void
DiskFaultConfig::validate(const char *context) const
{
    auto check_rate = [&](double rate, const char *name) {
        if (!(rate >= 0.0 && rate <= 1.0)) {
            fatal(msg() << context << ": " << name << " must be in "
                        << "[0, 1] (got " << rate
                        << "); it is a per-opportunity probability");
        }
    };
    check_rate(transientErrorRate, "transient error rate");
    check_rate(seekErrorRate, "seek error rate");
    check_rate(spinupFailureRate, "spin-up failure rate");
    if (!(windowStartSeconds >= 0)) {
        fatal(msg() << context << ": fault window start must be >= 0 "
                    << "(got " << windowStartSeconds << ")");
    }
    if (!(windowEndSeconds > windowStartSeconds)) {
        fatal(msg() << context << ": fault window end ("
                    << windowEndSeconds
                    << ") must be after its start ("
                    << windowStartSeconds
                    << "); omit the end for an unbounded window");
    }
}

DiskFaultModel::DiskFaultModel(const DiskFaultConfig &config)
    : cfg(config), rng(config.seed)
{
}

bool
DiskFaultModel::draw(double rate, double now_equiv_seconds,
                     std::uint64_t &counter)
{
    if (!cfg.enabled || rate <= 0)
        return false;
    if (now_equiv_seconds < cfg.windowStartSeconds ||
        now_equiv_seconds >= cfg.windowEndSeconds) {
        return false;
    }
    if (!rng.chance(rate))
        return false;
    ++counter;
    return true;
}

bool
DiskFaultModel::injectTransientError(double now_equiv_seconds)
{
    return draw(cfg.transientErrorRate, now_equiv_seconds,
                numTransient);
}

bool
DiskFaultModel::injectSeekError(double now_equiv_seconds)
{
    return draw(cfg.seekErrorRate, now_equiv_seconds, numSeek);
}

bool
DiskFaultModel::injectSpinupFailure(double now_equiv_seconds)
{
    return draw(cfg.spinupFailureRate, now_equiv_seconds, numSpinup);
}

void
DiskFaultModel::saveState(ChunkWriter &out) const
{
    out.u64(rng.rawState());
    out.u64(numTransient);
    out.u64(numSeek);
    out.u64(numSpinup);
}

void
DiskFaultModel::loadState(ChunkReader &in)
{
    rng.setRawState(in.u64());
    numTransient = in.u64();
    numSeek = in.u64();
    numSpinup = in.u64();
}

} // namespace softwatt
