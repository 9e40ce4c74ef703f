/**
 * @file
 * Simulation: the library's top-level convenience API.  Give it a
 * netlist and a machine configuration; it compiles the design, boots
 * the cycle-level machine, wires up the host runtime, and exposes
 * run / rate / log accessors.  This is the entry point the examples
 * and benchmarks use — the "three lines to simulate your design"
 * experience of the README quickstart.  (For engine-agnostic
 * harnesses, engine::Session + engine::create is the more general
 * spelling; Simulation remains the machine-centric facade.)
 *
 * To lockstep the machine against a golden model, hand
 * machineEngine() to engine::CrossCheck with any registry engine as
 * the golden (see src/engine/crosscheck.hh).
 */

#ifndef MANTICORE_RUNTIME_SIMULATION_HH
#define MANTICORE_RUNTIME_SIMULATION_HH

#include <memory>
#include <string>

#include "compiler/compiler.hh"
#include "engine/adapters.hh"
#include "machine/machine.hh"
#include "netlist/netlist.hh"
#include "runtime/host.hh"

namespace manticore::runtime {

class Simulation
{
  public:
    Simulation(const netlist::Netlist &netlist,
               const compiler::CompileOptions &options = {});

    /** Simulate up to max_vcycles RTL cycles. */
    isa::RunStatus run(uint64_t max_vcycles);

    isa::RunStatus status() const { return _machine->status(); }
    uint64_t vcycles() const { return _machine->perf().vcycles; }

    /** Effective simulation rate (kHz) at the configured compute
     *  clock, accounting for global stalls. */
    double effectiveRateKhz() const;

    const compiler::CompileResult &compileResult() const
    {
        return _compiled;
    }
    machine::Machine &machine() { return *_machine; }
    /** The machine as an engine::Engine (probes wired to the
     *  compiler's observation map). */
    engine::Engine &machineEngine() { return *_machineEngine; }
    Host &host() { return *_host; }
    const std::vector<std::string> &displayLog() const
    {
        return _host->displayLog();
    }

  private:
    compiler::CompileResult _compiled;
    isa::MachineConfig _config;
    std::unique_ptr<machine::Machine> _machine;
    /// Engine view of *_machine: the cross-check subject.
    std::unique_ptr<engine::MachineEngine> _machineEngine;
    std::unique_ptr<Host> _host;
};

} // namespace manticore::runtime

#endif // MANTICORE_RUNTIME_SIMULATION_HH
