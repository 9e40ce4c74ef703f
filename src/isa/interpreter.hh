/**
 * @file
 * Functional ISA simulators, parameterised by the hardware
 * configuration (§6 of the paper).  Both engines execute one Vcycle
 * at a time: every process body runs to completion in program order,
 * SENDs are buffered and applied at the Vcycle boundary (the
 * epilogue), and EXPECT mismatches are serviced through a host
 * callback exactly at the raise point, mirroring the global-stall
 * exception mechanism.
 *
 * Two engines implement the same InterpreterBase interface:
 *
 *  - Interpreter: the reference — walks the Instruction structs
 *    directly; slow but obviously correct, the semantics every other
 *    engine is validated against.
 *
 *  - TapeInterpreter (tape_interpreter.hh): each process body lowered
 *    once into a flat pre-decoded op tape over exactly-sized dense
 *    register files — NOP slots elided, operands resolved, common
 *    pairs fused.  Bit-identical architectural state, several times
 *    faster (see src/isa/README.md).
 *
 * engine::create builds either by registry name ("isa.reference",
 * "isa.tape").  Both are untimed; the machine simulator
 * (src/machine) adds the cycle-level pipeline/NoC/cache model.  All
 * three must produce identical architectural state, which the
 * randomized differential suite checks.
 */

#ifndef MANTICORE_ISA_INTERPRETER_HH
#define MANTICORE_ISA_INTERPRETER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "isa/isa.hh"

namespace manticore::support {
class ByteWriter;
class ByteReader;
} // namespace manticore::support

namespace manticore::isa {

/** Word-addressed 16-bit global (DRAM) memory shared by the
 *  interpreter, the machine simulator, and the host runtime.
 *
 *  Sparse paged store: 4 KiB pages (2048 words) keyed by page number
 *  in a flat hash map, so streaming access touches one map lookup and
 *  then dense array words instead of one hash probe per word.  Each
 *  page carries a written-word bitmap so footprint() still reports the
 *  number of distinct words ever written (including zero writes),
 *  matching the old per-word map's semantics. */
class GlobalMemory
{
  public:
    uint16_t
    read(uint64_t addr) const
    {
        auto it = _pages.find(addr / kPageWords);
        return it == _pages.end() ? 0
                                  : it->second.words[addr % kPageWords];
    }

    void
    write(uint64_t addr, uint16_t value)
    {
        Page &p = _pages[addr / kPageWords];
        uint64_t off = addr % kPageWords;
        uint64_t bit = 1ull << (off % 64);
        if (!(p.written[off / 64] & bit)) {
            p.written[off / 64] |= bit;
            ++_footprint;
        }
        p.words[off] = value;
    }

    /** Number of distinct words ever written. */
    size_t footprint() const { return _footprint; }

    /** Serialize every page (sorted by page number, so the byte
     *  stream is deterministic) for an engine snapshot. */
    void save(support::ByteWriter &w) const;
    /** Replace the contents from a serialized stream. */
    void load(support::ByteReader &r);

  private:
    static constexpr uint64_t kPageWords = 2048; ///< 4 KiB per page

    struct Page
    {
        std::array<uint16_t, kPageWords> words{};
        std::array<uint64_t, kPageWords / 64> written{};
    };

    std::unordered_map<uint64_t, Page> _pages;
    size_t _footprint = 0;
};

enum class RunStatus
{
    Running,
    Finished,
    Failed,
};

/** What the host decides after servicing an exception. */
enum class HostAction
{
    Continue,
    Finish,
    Fail,
};

/** Common interface of the functional ISA engines.  The runtime::Host
 *  attaches to this, so harnesses can swap engines freely. */
class InterpreterBase
{
  public:
    virtual ~InterpreterBase() = default;

    /** Execute one Vcycle; returns the status after servicing any
     *  exceptions raised during it. */
    virtual RunStatus stepVcycle() = 0;

    /** Run until finish/failure or max_vcycles.  The tape engine
     *  overrides this with a natively batched loop (one dispatch per
     *  batch); the result is cycle-exact either way. */
    virtual RunStatus
    run(uint64_t max_vcycles)
    {
        for (uint64_t i = 0;
             i < max_vcycles && status() == RunStatus::Running; ++i)
            stepVcycle();
        return status();
    }

    virtual uint64_t vcycle() const = 0;
    virtual RunStatus status() const = 0;

    /** 16-bit value of a register of a process (0 if out of file). */
    virtual uint16_t regValue(uint32_t pid, Reg reg) const = 0;
    /** Carry bit of a register of a process. */
    virtual bool regCarry(uint32_t pid, Reg reg) const = 0;
    virtual uint16_t scratchValue(uint32_t pid, uint32_t addr) const = 0;

    virtual GlobalMemory &globalMemory() = 0;
    virtual const GlobalMemory &globalMemory() const = 0;

    /** Dynamic instruction count (excluding NOP) over all processes. */
    virtual uint64_t instructionsExecuted() const = 0;
    virtual uint64_t sendsExecuted() const = 0;

    /** Raised when an EXPECT fires; defaults to Finish on any
     *  exception.  The runtime::Host installs the real servicing. */
    std::function<HostAction(uint32_t pid, uint16_t eid)> onException;

    // ---- ensemble views -------------------------------------------
    // An interpreter may advance N decoupled simulations ("lanes") per
    // Vcycle (currently only the tape engine, see tape_interpreter.hh).
    // Lane 0 is always the scalar API above; every default below is
    // the 1-lane degenerate case, so scalar engines need no overrides.

    /** Ensemble width (1 for scalar engines). */
    virtual unsigned lanes() const { return 1; }
    virtual RunStatus laneStatus(unsigned lane) const;
    virtual uint64_t laneVcycle(unsigned lane) const;
    virtual uint16_t regValueLane(unsigned lane, uint32_t pid,
                                  Reg reg) const;
    virtual bool regCarryLane(unsigned lane, uint32_t pid,
                              Reg reg) const;
    virtual uint16_t scratchValueLane(unsigned lane, uint32_t pid,
                                      uint32_t addr) const;
    virtual GlobalMemory &globalMemoryLane(unsigned lane);
    virtual const GlobalMemory &globalMemoryLane(unsigned lane) const;
    virtual uint64_t laneInstructionsExecuted(unsigned lane) const;
    virtual uint64_t laneSendsExecuted(unsigned lane) const;

    /** Lane-aware EXPECT servicing: when set, a laned interpreter
     *  calls this INSTEAD of onException so the host can consult the
     *  raising lane's global memory.  Scalar engines ignore it. */
    std::function<HostAction(unsigned lane, uint32_t pid, uint16_t eid)>
        onExceptionLane;

    // ---- checkpoint/restore (engine::Snapshot plumbing) -----------
    // One canonical byte format for the whole ISA family: per-process
    // register files (16-bit value + carry), scratchpads, predicate
    // flags, the pending message buffer (architecturally empty at
    // every Vcycle boundary — asserted on save), the global memory
    // pages and the run counters.  Both interpreters size their
    // register files through exec::registerFileSizes, so a snapshot
    // saved on either restores on the other bit-identically.

    /** Does this interpreter implement save/restore? */
    virtual bool snapshotSupported() const { return false; }
    /** Serialize the full architectural state (canonical format). */
    virtual void saveState(support::ByteWriter &w) const;
    /** Restore from the canonical format; geometry mismatches
     *  (process count, register-file sizes) are a loud fatal(). */
    virtual void restoreState(support::ByteReader &r);

    /** Serialize ONE lane in the same canonical per-lane byte format
     *  saveState writes for a scalar engine, so a lane section taken
     *  from an N-lane engine restores on a 1-lane engine of either
     *  family and vice versa.  A laned saveState is exactly the
     *  requested lanes' sections concatenated in lane order. */
    virtual void saveLaneState(unsigned lane,
                               support::ByteWriter &w) const;
    virtual void restoreLaneState(unsigned lane,
                                  support::ByteReader &r);
};

class Interpreter : public InterpreterBase
{
  public:
    Interpreter(const Program &program, const MachineConfig &config);

    RunStatus stepVcycle() override;

    uint64_t vcycle() const override { return _vcycle; }
    RunStatus status() const override { return _status; }

    uint16_t regValue(uint32_t pid, Reg reg) const override;
    bool regCarry(uint32_t pid, Reg reg) const override;
    uint16_t scratchValue(uint32_t pid, uint32_t addr) const override;

    GlobalMemory &globalMemory() override { return _global; }
    const GlobalMemory &globalMemory() const override { return _global; }

    uint64_t instructionsExecuted() const override
    {
        return _instretNonNop;
    }
    uint64_t sendsExecuted() const override { return _sends; }

    bool snapshotSupported() const override { return true; }
    void saveState(support::ByteWriter &w) const override;
    void restoreState(support::ByteReader &r) override;

  private:
    struct ProcState
    {
        std::vector<uint32_t> regs; ///< bit 16 = carry
        std::vector<uint16_t> scratch;
        bool pred = false;
    };

    void executeProcess(uint32_t pid);
    uint32_t &regRef(uint32_t pid, Reg reg);

    const Program &_program;
    MachineConfig _config;
    std::vector<ProcState> _procs;
    GlobalMemory _global;

    struct Message
    {
        uint32_t targetPid;
        Reg targetReg;
        uint16_t value;
    };
    std::vector<Message> _pendingSends;

    uint64_t _vcycle = 0;
    RunStatus _status = RunStatus::Running;
    uint64_t _instretNonNop = 0;
    uint64_t _sends = 0;
};

} // namespace manticore::isa

#endif // MANTICORE_ISA_INTERPRETER_HH
