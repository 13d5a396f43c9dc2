/**
 * @file
 * The CPU-to-operating-system interface: stream multiplexing, traps,
 * syscalls and interrupts. Implemented by os::Kernel; depended on by
 * both timing models.
 */

#ifndef SOFTWATT_CPU_KERNEL_IFACE_HH
#define SOFTWATT_CPU_KERNEL_IFACE_HH

#include <vector>

#include "inst.hh"

namespace softwatt
{

/**
 * Services the CPU needs from the kernel model.
 *
 * The kernel owns which stream feeds the CPU (user program, kernel
 * service, idle loop) and performs all mode bookkeeping; the CPU
 * reports the architectural events that cause stream switches.
 */
class KernelIface
{
  public:
    virtual ~KernelIface() = default;

    /**
     * Fetch the next dynamic instruction. Replayed (squashed)
     * instructions are returned before new ones.
     */
    virtual FetchOutcome fetchNext(MicroOp &op) = 0;

    /**
     * A data access missed the TLB. The CPU has squashed the faulting
     * instruction and everything younger; @p replay holds them in
     * program order for re-execution after the handler.
     */
    virtual void dataTlbMiss(Addr vaddr, std::uint32_t asid,
                             std::vector<MicroOp> replay) = 0;

    /** A syscall instruction committed. */
    virtual void syscall(const MicroOp &op) = 0;

    /**
     * Any instruction committed. The kernel uses this to close
     * per-service-invocation accounting without draining the
     * pipeline at service boundaries.
     */
    virtual void onCommit(const MicroOp &op) = 0;

    /** Is an external interrupt awaiting delivery? */
    virtual bool interruptPending() const = 0;

    /**
     * Deliver the pending interrupt. @p replay holds the squashed
     * in-flight instructions in program order.
     */
    virtual void takeInterrupt(std::vector<MicroOp> replay) = 0;

    /**
     * Called by the CPU whenever its pipeline is completely empty;
     * the kernel uses it to finalize service-invocation accounting
     * before switching streams. A second call with nothing fetched or
     * squashed in between must change nothing, so a CPU may skip it
     * across quiet cycles (SuperscalarCpu::quietCycles).
     */
    virtual void onPipelineEmpty() = 0;

    /** Execution mode of the stream currently being fetched. */
    virtual ExecMode currentStreamMode() const = 0;

    /**
     * Nonzero while the machine is architecturally in kernel mode
     * (between a trap/syscall and the completion of its service):
     * the frame tag cycles should be charged to. Zero in user mode
     * or while the service is blocked and the idle loop runs.
     */
    virtual std::uint32_t privilegedTag() const = 0;
};

} // namespace softwatt

#endif // SOFTWATT_CPU_KERNEL_IFACE_HH
