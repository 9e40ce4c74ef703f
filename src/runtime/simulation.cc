#include "runtime/simulation.hh"

namespace manticore::runtime {

Simulation::Simulation(const netlist::Netlist &netlist,
                       const compiler::CompileOptions &options)
    : _compiled(compiler::compile(netlist, options)),
      _config(options.config)
{
    _machine = std::make_unique<machine::Machine>(_compiled.program,
                                                  _config);
    _machineEngine = std::make_unique<engine::MachineEngine>(
        *_machine, engine::rtlSignals(netlist, _compiled));
    _host = std::make_unique<Host>(_compiled.program,
                                   _machine->globalMemory());
    _host->attach(*_machineEngine);
}

isa::RunStatus
Simulation::run(uint64_t max_vcycles)
{
    return _machine->run(max_vcycles);
}

double
Simulation::effectiveRateKhz() const
{
    const machine::PerfCounters &perf = _machine->perf();
    if (perf.totalCycles() == 0)
        return 0.0;
    return _config.clockKhz * static_cast<double>(perf.vcycles) /
           static_cast<double>(perf.totalCycles());
}

} // namespace manticore::runtime
