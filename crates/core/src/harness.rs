//! Shared driver plumbing for every register-file variant.
//!
//! Each structural register file owns an event [`Simulator`], a driver
//! cursor that spaces operations far enough apart for every cell to settle,
//! and the violation/fault knobs of the underlying engine. [`RfHarness`]
//! centralises that state so the variants only implement their ports, and
//! the [`RegisterFile`] trait exposes the common driver surface (read /
//! write / peek plus the shared knobs) so analyses like the margin engine,
//! the soak harness, and the repro reports work over any registered design
//! (see [`crate::designs`]).

use sfq_cells::Census;
use sfq_lint::{LintPorts, LintReport};
use sfq_sim::compiled::EngineKind;
use sfq_sim::fault::FaultPlan;
use sfq_sim::layout::{CellLayout, LayoutKind};
use sfq_sim::netlist::Netlist;
use sfq_sim::queue::SchedulerKind;
use sfq_sim::simulator::{SimStats, Simulator};
use sfq_sim::time::{Duration, Time};
use sfq_sim::violation::{Violation, ViolationPolicy};

use crate::config::RfGeometry;

/// Default gap between driver operations (ps). Far above the 53 ps NDROC
/// re-arm time: the functional drivers run operations to completion rather
/// than pipelining them (pipelined scheduling is modelled architecturally
/// in `schedule`).
pub const OP_GAP_PS: f64 = 400.0;

/// Start time of the first driver operation (ps).
const FIRST_OP_PS: f64 = 10.0;

/// The simulator-ownership and operation-cursor state shared by every
/// structural register-file driver.
#[derive(Debug)]
pub struct RfHarness {
    geometry: RfGeometry,
    sim: Simulator,
    cursor: Time,
    op_gap: Duration,
}

impl RfHarness {
    /// Wraps a freshly built simulator with the default operation gap.
    pub fn new(geometry: RfGeometry, sim: Simulator) -> Self {
        Self::with_op_gap(geometry, sim, OP_GAP_PS)
    }

    /// Wraps a simulator with an explicit inter-operation gap (ps) for
    /// drivers whose settle time differs from the default.
    pub fn with_op_gap(geometry: RfGeometry, sim: Simulator, op_gap_ps: f64) -> Self {
        RfHarness {
            geometry,
            sim,
            cursor: Time::from_ps(FIRST_OP_PS),
            op_gap: Duration::from_ps(op_gap_ps),
        }
    }

    /// The geometry of the register file.
    pub fn geometry(&self) -> RfGeometry {
        self.geometry
    }

    /// The wrapped simulator.
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// The wrapped simulator, mutably.
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// The elaborated netlist.
    pub fn netlist(&self) -> &Netlist {
        self.sim.netlist()
    }

    /// Start time for the next driver operation.
    pub fn cursor(&self) -> Time {
        self.cursor
    }

    /// Moves the cursor one operation gap past the simulator's current
    /// time; drivers call this after every completed operation.
    pub fn advance_cursor(&mut self) {
        self.cursor = self.sim.now() + self.op_gap;
    }

    /// Returns the register file to its as-built state: the simulator is
    /// [reset](Simulator::reset) (cell state, queue, clock, counters,
    /// violations, probe traces, fault plan and violation policy) and the
    /// operation cursor rewinds to the first slot. The elaborated netlist,
    /// probe registrations and compiled tables are kept, so batch
    /// analyses run many independent trials on one build.
    ///
    /// # Panics
    ///
    /// Panics if a cell of the netlist has no lowering.
    pub fn reset(&mut self) {
        self.sim.reset();
        self.cursor = Time::from_ps(FIRST_OP_PS);
    }

    /// Cell census of the elaborated netlist.
    pub fn census(&self) -> Census {
        Census::of(self.sim.netlist())
    }

    /// Timing violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        self.sim.violations()
    }

    /// Sets how the simulator reacts to timing violations.
    pub fn set_violation_policy(&mut self, policy: ViolationPolicy) {
        self.sim.set_violation_policy(policy);
    }

    /// Installs a fault plan (seeded delay variation / pulse faults).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.sim.set_fault_plan(plan);
    }

    /// Pulses destroyed by the `Degrade` policy so far.
    pub fn degraded_drops(&self) -> u64 {
        self.sim.degraded_drops()
    }

    /// Cumulative scheduler statistics (events processed, peak queue
    /// depth, simulated time advanced).
    pub fn sim_stats(&self) -> SimStats {
        self.sim.stats()
    }

    /// The event-queue implementation the simulator is running on.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.sim.scheduler_kind()
    }

    /// Switches the event-queue implementation. Only legal while no events
    /// are in flight — designs are built quiescent, so the differential
    /// suite calls this right after construction.
    ///
    /// # Panics
    ///
    /// Panics if events are pending in the queue.
    pub fn set_scheduler(&mut self, kind: SchedulerKind) {
        self.sim.set_scheduler(kind);
    }

    /// The execution engine the simulator delivers pulses with.
    pub fn engine_kind(&self) -> EngineKind {
        self.sim.engine_kind()
    }

    /// Switches the execution engine. Only legal while no events are in
    /// flight — designs are built quiescent, so the differential suite
    /// calls this right after construction.
    ///
    /// # Panics
    ///
    /// Panics if events are pending in the queue.
    pub fn set_engine(&mut self, kind: EngineKind) {
        self.sim.set_engine(kind);
    }

    /// The cell-placement policy the compiled engine lowers with.
    pub fn layout_kind(&self) -> LayoutKind {
        self.sim.layout_kind()
    }

    /// Switches the compiled engine's cell placement. Legal at any point —
    /// placement is internal to the lowering and never changes a trace.
    pub fn set_layout_kind(&mut self, kind: LayoutKind) {
        self.sim.set_layout_kind(kind);
    }

    /// Pins an explicit cell placement (differential suites drive seeded
    /// arbitrary permutations through this).
    pub fn set_cell_layout(&mut self, layout: CellLayout) {
        self.sim.set_cell_layout(layout);
    }

    /// Pays the active engine's lazy one-time setup (layout + slot
    /// tables) now instead of inside the first operation. The perf
    /// harness calls this before starting its clock so the compile is
    /// not billed to the measured soak.
    pub fn prepare(&mut self) {
        self.sim.prepare();
    }

    /// The FailFast lint gate: refuses to simulate a netlist that static
    /// analysis has proven defective. Called by the provided
    /// [`RegisterFile::set_violation_policy`] when switching to
    /// [`ViolationPolicy::FailFast`] — a run that wants to stop at the
    /// first *dynamic* violation should not start on a netlist with
    /// *static* errors.
    ///
    /// # Panics
    ///
    /// Panics if the report contains any error-severity finding.
    pub fn gate_on_lint(report: &LintReport) {
        if !report.is_clean() {
            let first = report
                .findings
                .iter()
                .find(|f| f.severity == sfq_lint::Severity::Error)
                .expect("unclean report has an error finding");
            panic!(
                "lint gate: refusing to simulate a netlist with {} static error(s); first: {first}",
                report.errors()
            );
        }
    }

    /// Panics if `reg` is out of range for the geometry.
    pub fn assert_reg(&self, reg: usize) {
        assert!(
            reg < self.geometry.registers(),
            "register {reg} out of range"
        );
    }

    /// Panics if `reg` is out of range or `value` does not fit the width.
    pub fn assert_write(&self, reg: usize, value: u64) {
        self.assert_reg(reg);
        let w = self.geometry.width();
        assert!(
            w == 64 || value < (1u64 << w),
            "value {value:#x} exceeds {w}-bit width"
        );
    }
}

/// Aggregate scheduler statistics over a *batch* of register-file runs.
///
/// [`SimStats`] is per-run, and batch analyses (margin sweeps, Monte Carlo
/// yield, the job server's sharded trials) run many simulations — on
/// fresh or [reset](RegisterFile::reset) register files — so one run's
/// counters alone under-report the work behind a job. `BatchStats` rolls
/// runs up as they finish: event counts and simulated time add, peak queue
/// depth takes the max across runs. The serve layer reports these per job
/// without re-walking any traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Register-file runs absorbed.
    pub runs: u64,
    /// Summed/maxed scheduler counters over those runs.
    pub totals: SimStats,
}

impl BatchStats {
    /// An empty roll-up.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one finished run's counters in.
    pub fn absorb(&mut self, stats: SimStats) {
        self.runs += 1;
        self.totals.absorb(stats);
    }

    /// Folds a finished register file's lifetime counters in.
    pub fn absorb_rf(&mut self, rf: &dyn RegisterFile) {
        self.absorb(rf.sim_stats());
    }

    /// Merges another roll-up (e.g. one per shard) into this one.
    pub fn merge(&mut self, other: &BatchStats) {
        self.runs += other.runs;
        self.totals.absorb(other.totals);
    }

    /// Total events processed across the batch.
    pub fn events(&self) -> u64 {
        self.totals.events_processed
    }
}

/// The common driver surface of every structural register-file design.
///
/// Required methods are the design-specific port protocols; everything
/// else (plain writes, census, violation policy, fault injection) is
/// provided through the design's [`RfHarness`]. The trait is object-safe:
/// [`crate::designs::Design::build`] hands out `Box<dyn RegisterFile>` so
/// analyses can be written once for every registered design.
pub trait RegisterFile {
    /// The shared harness state.
    fn harness(&self) -> &RfHarness;

    /// The shared harness state, mutably.
    fn harness_mut(&mut self) -> &mut RfHarness;

    /// Reads a register through the port.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    fn read(&mut self, reg: usize) -> u64;

    /// Writes a register with a deliberate skew (ps, may be negative) on
    /// the data train's arrival at the write gates — the margin-engine
    /// hook for mapping each design's coincidence window.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range or `value` does not fit the width.
    fn write_skewed(&mut self, reg: usize, value: u64, skew_ps: f64);

    /// Peeks stored register contents without a (state-disturbing) port
    /// access.
    fn peek(&self, reg: usize) -> u64;

    /// The external-port context for static analysis: which input pins the
    /// driver injects into, and the issue schedule the timing rule checks
    /// against.
    fn lint_ports(&self) -> LintPorts;

    /// Writes a register with nominal timing.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range or `value` does not fit the width.
    fn write(&mut self, reg: usize, value: u64) {
        self.write_skewed(reg, value, 0.0);
    }

    /// The geometry of this register file.
    fn geometry(&self) -> RfGeometry {
        self.harness().geometry()
    }

    /// The elaborated netlist.
    fn netlist(&self) -> &Netlist {
        self.harness().netlist()
    }

    /// Cell census of the elaborated netlist.
    fn census(&self) -> Census {
        self.harness().census()
    }

    /// Timing violations recorded so far.
    fn violations(&self) -> &[Violation] {
        self.harness().violations()
    }

    /// Runs every static lint rule over the elaborated netlist.
    fn lint(&self) -> LintReport {
        sfq_lint::lint(self.netlist(), &self.lint_ports())
    }

    /// Sets how the simulator reacts to timing violations.
    ///
    /// Switching to [`ViolationPolicy::FailFast`] first runs the static
    /// lint pass and refuses (panics) if the netlist has error-severity
    /// findings — see [`RfHarness::gate_on_lint`].
    fn set_violation_policy(&mut self, policy: ViolationPolicy) {
        if policy == ViolationPolicy::FailFast {
            RfHarness::gate_on_lint(&self.lint());
        }
        self.harness_mut().set_violation_policy(policy);
    }

    /// Installs a fault plan (seeded delay variation / pulse faults).
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.harness_mut().set_fault_plan(plan);
    }

    /// Pulses destroyed by the `Degrade` policy so far.
    fn degraded_drops(&self) -> u64 {
        self.harness().degraded_drops()
    }

    /// Cumulative scheduler statistics of the underlying simulator.
    fn sim_stats(&self) -> SimStats {
        self.harness().sim_stats()
    }

    /// The event-queue implementation the simulator is running on.
    fn scheduler_kind(&self) -> SchedulerKind {
        self.harness().scheduler_kind()
    }

    /// Switches the event-queue implementation (only while quiescent —
    /// see [`RfHarness::set_scheduler`]).
    fn set_scheduler(&mut self, kind: SchedulerKind) {
        self.harness_mut().set_scheduler(kind);
    }

    /// The execution engine the simulator delivers pulses with.
    fn engine_kind(&self) -> EngineKind {
        self.harness().engine_kind()
    }

    /// Switches the execution engine (only while quiescent — see
    /// [`RfHarness::set_engine`]).
    fn set_engine(&mut self, kind: EngineKind) {
        self.harness_mut().set_engine(kind);
    }

    /// The cell-placement policy the compiled engine lowers with.
    fn layout_kind(&self) -> LayoutKind {
        self.harness().layout_kind()
    }

    /// Switches the compiled engine's cell placement (legal at any point;
    /// observables are placement-invariant).
    fn set_layout_kind(&mut self, kind: LayoutKind) {
        self.harness_mut().set_layout_kind(kind);
    }

    /// Pins an explicit cell placement for the compiled lowering (the
    /// permutation differential suites use this).
    fn set_cell_layout(&mut self, layout: CellLayout) {
        self.harness_mut().set_cell_layout(layout);
    }

    /// Pays the active engine's lazy one-time setup (layout + slot
    /// tables) now, so the first operation runs on a warm engine.
    fn prepare(&mut self) {
        self.harness_mut().prepare();
    }

    /// Returns the register file to its as-built state, keeping the
    /// elaborated netlist and compiled tables (see [`RfHarness::reset`]).
    /// A reset file behaves byte for byte like a freshly built one.
    ///
    /// Designs whose driver keeps no state outside the harness (every
    /// registry design: their drivers hold only pins, probe ids and
    /// static delays) need nothing more than this provided method.
    ///
    /// # Panics
    ///
    /// Panics if a cell of the netlist has no lowering.
    fn reset(&mut self) {
        self.harness_mut().reset();
    }
}
