/**
 * @file
 * Fan-out point for hardware event counters: every event goes to the
 * global sampled bank and — when the event belongs to a kernel
 * service invocation — to that invocation's private bank, selected by
 * the instruction's frame tag. This is how SoftWatt gets exact
 * per-invocation service energies (Table 5 / Figure 8) even with
 * multiple invocations' instructions in flight at once.
 */

#ifndef SOFTWATT_SIM_COUNTER_SINK_HH
#define SOFTWATT_SIM_COUNTER_SINK_HH

#include <cstdint>
#include <vector>

#include "sim/checkpoint.hh"

#include "check.hh"
#include "counters.hh"
#include "types.hh"

namespace softwatt
{

/**
 * Routes counter increments to the global bank plus the private bank
 * of the service invocation identified by the event's frame tag.
 */
class CounterSink
{
  public:
    CounterSink() = default;

    /** The sampled global bank (cleared each log window). */
    CounterBank &global() { return globalBank; }
    const CounterBank &global() const { return globalBank; }

    /** Attach a per-invocation bank under a frame tag. */
    void
    registerBank(std::uint32_t tag, CounterBank *bank)
    {
        banks.push_back(TaggedBank{tag, bank});
    }

    /** Detach a per-invocation bank; idempotent. */
    void
    unregisterBank(std::uint32_t tag)
    {
        for (std::size_t i = 0; i < banks.size(); ++i) {
            if (banks[i].tag == tag) {
                banks[i] = banks.back();
                banks.pop_back();
                return;
            }
        }
    }

    /** Number of live per-invocation banks. */
    std::size_t liveBanks() const { return banks.size(); }

    /**
     * Record @p n events of kind @p id in mode @p mode, belonging to
     * the service invocation @p tag (0 = none). Only kernel-mode
     * events are forwarded to the invocation's bank.
     */
    void
    add(ExecMode mode, CounterId id, std::uint64_t n = 1,
        std::uint32_t tag = 0)
    {
        globalBank.addTo(mode, id, n);
        if (tag != 0 && (mode == ExecMode::KernelInst ||
                         mode == ExecMode::KernelSync)) {
            for (const TaggedBank &entry : banks) {
                if (entry.tag == tag) {
                    entry.bank->addTo(mode, id, n);
                    break;
                }
            }
        }
    }

    /** Mode/tag used for per-cycle charges (set by the CPU). */
    void
    setCycleMode(ExecMode mode, std::uint32_t tag = 0)
    {
        cycleModeValue = mode;
        cycleTagValue = tag;
    }

    ExecMode cycleMode() const { return cycleModeValue; }
    std::uint32_t cycleTag() const { return cycleTagValue; }

    /** Charge one elapsed cycle to the current cycle mode. */
    void
    addCycle()
    {
        add(cycleModeValue, CounterId::Cycles, 1, cycleTagValue);
    }

    /** Charge @p n elapsed cycles to the current cycle mode. */
    void
    addCycles(std::uint64_t n)
    {
        add(cycleModeValue, CounterId::Cycles, n, cycleTagValue);
    }

    /**
     * Checkpointing. Per-invocation banks are owned by live kernel
     * service frames, which cannot exist at a checkpoint-safe point,
     * so only the global bank and the cycle attribution are saved.
     */
    void
    saveState(ChunkWriter &out) const
    {
        SW_CHECK(banks.empty(),
                 "CounterSink::saveState with live service banks");
        globalBank.saveState(out);
        out.u8(std::uint8_t(cycleModeValue));
        out.u32(cycleTagValue);
    }

    void
    loadState(ChunkReader &in)
    {
        SW_CHECK(banks.empty(),
                 "CounterSink::loadState with live service banks");
        globalBank.loadState(in);
        cycleModeValue =
            checkpointExecMode(in.u8(), "counter sink cycle mode");
        cycleTagValue = in.u32();
    }

  private:
    struct TaggedBank
    {
        std::uint32_t tag;
        CounterBank *bank;
    };

    CounterBank globalBank;
    std::vector<TaggedBank> banks;
    ExecMode cycleModeValue = ExecMode::User;
    std::uint32_t cycleTagValue = 0;
};

} // namespace softwatt

#endif // SOFTWATT_SIM_COUNTER_SINK_HH
