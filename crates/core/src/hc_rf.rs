//! Structural HiPerRF bank: HC-DRO storage with LoopBuffer loopback
//! (paper §IV, Fig. 9).
//!
//! One bank contains:
//!
//! * `n × c` HC-DRO cells (`c = w/2` columns, two bits per cell);
//! * a read-port NDROC demux whose outputs pass through per-register
//!   **HC-CLK** pulse triplers (one enable → three pop pulses);
//! * a write-port demux, also triplered, gating per-cell dynamic ANDs;
//! * per-column **HC-WRITE** serializers merged with the **loopback**
//!   branch, fanned out to every register's write gates;
//! * per-column output merger trees feeding the **LoopBuffer** NDROs, whose
//!   outputs split into the HC-READ decoders and the loopback path.
//!
//! Reading a register therefore *restores* it: the popped pulse train exits
//! through the LoopBuffer (pre-set to 1), splits, and one branch re-enters
//! the write port, which the driver re-arms at the source address. Erasure
//! before a write is a read with the LoopBuffer reset to 0 — this is how
//! the read port doubles as the reset port and the dedicated reset port of
//! the baseline disappears (paper §IV-C).

use sfq_cells::composite::{
    build_hc_clk, build_hc_clk_typed, build_hc_read, build_hc_read_typed, build_hc_write,
    build_hc_write_typed,
};
use sfq_cells::logic::Dand;
use sfq_cells::storage::{HcDro, Ndro};
use sfq_cells::timing::{
    HCDRO_CLK_TO_OUT_PS, MERGER_DELAY_PS, NDROC_PROP_PS, NDRO_CLK_TO_OUT_PS, SPLITTER_DELAY_PS,
};
use sfq_cells::transport::Merger;
use sfq_cells::typed::{Sink, TypedBuilder, Wire};
use sfq_cells::CircuitBuilder;
use sfq_sim::netlist::{ComponentId, Pin};
use sfq_sim::simulator::{ProbeId, Simulator};
use sfq_sim::time::{Duration, Time};

use crate::config::RfGeometry;
use crate::demux::{build_demux, build_demux_typed, sel_head_start_ps};
use crate::fabric::{broadcast_depth, broadcast_to, broadcast_to_typed, merge_depth};

/// Latency of HC-CLK from input to its first output pulse (ps).
const HC_CLK_FIRST_PS: f64 = SPLITTER_DELAY_PS + MERGER_DELAY_PS;
/// Latency of HC-WRITE from input to its first output slot (ps).
const HC_WRITE_SLOT0_PS: f64 = 12.0;

/// External ports of one structural HiPerRF bank.
#[derive(Debug, Clone)]
pub struct HcRfPorts {
    /// Bank geometry.
    pub geometry: RfGeometry,
    /// Read-port select inputs (MSB first).
    pub read_sel: Vec<Pin>,
    /// Read-port enable input.
    pub read_enable: Pin,
    /// Read-demux NDROC reset broadcast.
    pub read_clear: Pin,
    /// Write-port select inputs (MSB first).
    pub write_sel: Vec<Pin>,
    /// Write-port enable input.
    pub write_enable: Pin,
    /// Write-demux NDROC reset broadcast.
    pub write_clear: Pin,
    /// LoopBuffer SET broadcast (arm for a restoring read).
    pub lb_set: Pin,
    /// LoopBuffer RESET broadcast (arm for an erase).
    pub lb_reset: Pin,
    /// HC-READ latch broadcast (sample the counted value).
    pub hcread_read: Pin,
    /// HC-READ counter reset broadcast.
    pub hcread_reset: Pin,
    /// Per-column HC-WRITE LSB inputs.
    pub data_b0: Vec<Pin>,
    /// Per-column HC-WRITE MSB inputs.
    pub data_b1: Vec<Pin>,
    /// Per-column HC-READ LSB outputs.
    pub hcread_b0: Vec<Pin>,
    /// Per-column HC-READ MSB outputs.
    pub hcread_b1: Vec<Pin>,
    /// Per-column HC-READ counter carry outputs (silent by design, but
    /// declared so the `dropped-wire` lint knows they are intentional).
    pub carries: Vec<Pin>,
    /// Storage cells, `[register][column]`.
    pub cells: Vec<Vec<ComponentId>>,
}

impl HcRfPorts {
    /// Every externally driven input pin of the bank — its contribution to
    /// a design's [`sfq_lint::LintPorts`].
    pub fn lint_inputs(&self) -> Vec<Pin> {
        let mut pins = vec![
            self.read_enable,
            self.read_clear,
            self.write_enable,
            self.write_clear,
            self.lb_set,
            self.lb_reset,
            self.hcread_read,
            self.hcread_reset,
        ];
        pins.extend(self.read_sel.iter().copied());
        pins.extend(self.write_sel.iter().copied());
        pins.extend(self.data_b0.iter().copied());
        pins.extend(self.data_b1.iter().copied());
        pins
    }

    /// Every externally observed output pin of the bank (HC-READ decoder
    /// outputs and the silent counter carries) — its contribution to a
    /// design's [`sfq_lint::LintPorts::external_outputs`].
    pub fn lint_outputs(&self) -> Vec<Pin> {
        let mut pins = self.hcread_b0.clone();
        pins.extend(self.hcread_b1.iter().copied());
        pins.extend(self.carries.iter().copied());
        pins
    }
}

/// Builds one HiPerRF bank into `b`.
pub fn build_hc_rf(b: &mut CircuitBuilder, geometry: RfGeometry) -> HcRfPorts {
    let n = geometry.registers();
    let c = geometry.hc_columns();
    let levels = geometry.demux_levels();

    // Storage.
    let cells: Vec<Vec<ComponentId>> = (0..n)
        .map(|r| b.scoped(format!("reg{r}"), |b| (0..c).map(|_| b.hcdro()).collect()))
        .collect();

    // Read port: demux -> HC-CLK per register -> column broadcast -> CLK.
    let read_demux = b.scoped("read", |b| {
        let d = build_demux(b, levels);
        for (r, row) in cells.iter().enumerate() {
            let clk = build_hc_clk(b);
            b.connect(d.outputs[r], clk.input);
            let targets: Vec<_> = row.iter().map(|&cell| Pin::new(cell, HcDro::CLK)).collect();
            let fan = broadcast_to(b, &targets);
            b.connect(clk.output, fan);
        }
        d
    });

    // Write port: demux -> HC-CLK per register -> DAND gate broadcast.
    let (write_demux, dands) = b.scoped("write", |b| {
        let d = build_demux(b, levels);
        let dands: Vec<Vec<ComponentId>> =
            (0..n).map(|_| (0..c).map(|_| b.dand()).collect()).collect();
        for r in 0..n {
            let clk = build_hc_clk(b);
            b.connect(d.outputs[r], clk.input);
            let gates: Vec<_> = dands[r].iter().map(|&g| Pin::new(g, Dand::A)).collect();
            let fan = broadcast_to(b, &gates);
            b.connect(clk.output, fan);
            for (gate, cell) in dands[r].iter().zip(&cells[r]) {
                b.connect(Pin::new(*gate, Dand::OUT), Pin::new(*cell, HcDro::D));
            }
        }
        (d, dands)
    });

    // Data path per column: HC-WRITE -> join merger (with loopback) ->
    // register broadcast -> DAND data inputs.
    let mut data_b0 = Vec::with_capacity(c);
    let mut data_b1 = Vec::with_capacity(c);
    let mut join_loopback_in = Vec::with_capacity(c);
    b.push_scope("datapath".to_string());
    #[allow(clippy::needless_range_loop)] // col also indexes per-register gate rows
    for col in 0..c {
        let w = build_hc_write(b);
        data_b0.push(w.b0);
        data_b1.push(w.b1);
        let join = b.merger();
        b.connect(w.output, Pin::new(join, Merger::IN_A));
        join_loopback_in.push(Pin::new(join, Merger::IN_B));
        let targets: Vec<_> = (0..n).map(|r| Pin::new(dands[r][col], Dand::B)).collect();
        let fan = broadcast_to(b, &targets);
        b.connect(Pin::new(join, Merger::OUT), fan);
    }
    b.pop_scope();

    // Output port: column merger trees -> LoopBuffer -> split into HC-READ
    // and loopback.
    let mut lb_set_pins = Vec::with_capacity(c);
    let mut lb_reset_pins = Vec::with_capacity(c);
    let mut hcread_read_pins = Vec::with_capacity(c);
    let mut hcread_reset_pins = Vec::with_capacity(c);
    let mut hcread_b0 = Vec::with_capacity(c);
    let mut hcread_b1 = Vec::with_capacity(c);
    let mut carries = Vec::with_capacity(c);
    b.push_scope("output".to_string());
    for col in 0..c {
        let inputs: Vec<_> = (0..n).map(|r| Pin::new(cells[r][col], HcDro::Q)).collect();
        let merged = b.merger_tree(&inputs);
        let lb = b.ndro();
        b.connect(merged, Pin::new(lb, Ndro::CLK));
        lb_set_pins.push(Pin::new(lb, Ndro::SET));
        lb_reset_pins.push(Pin::new(lb, Ndro::RESET));
        let split = b.splitter();
        b.connect(
            Pin::new(lb, Ndro::OUT),
            Pin::new(split, sfq_cells::transport::Splitter::IN),
        );
        let reader = build_hc_read(b);
        b.connect(
            Pin::new(split, sfq_cells::transport::Splitter::OUT0),
            reader.input,
        );
        b.connect(
            Pin::new(split, sfq_cells::transport::Splitter::OUT1),
            join_loopback_in[col],
        );
        hcread_read_pins.push(reader.read);
        hcread_reset_pins.push(reader.reset);
        hcread_b0.push(reader.b0);
        hcread_b1.push(reader.b1);
        carries.push(reader.carry);
    }
    let lb_set = broadcast_to(b, &lb_set_pins);
    let lb_reset = broadcast_to(b, &lb_reset_pins);
    let hcread_read = broadcast_to(b, &hcread_read_pins);
    let hcread_reset = broadcast_to(b, &hcread_reset_pins);
    b.pop_scope();

    HcRfPorts {
        geometry,
        read_sel: read_demux.sel_set.clone(),
        read_enable: read_demux.enable,
        read_clear: read_demux.reset,
        write_sel: write_demux.sel_set.clone(),
        write_enable: write_demux.enable,
        write_clear: write_demux.reset,
        lb_set,
        lb_reset,
        hcread_read,
        hcread_reset,
        data_b0,
        data_b1,
        hcread_b0,
        hcread_b1,
        carries,
        cells,
    }
}

/// Typed twin of [`HcRfPorts`]: the bank's external endpoints as affine
/// handles, so a wrapper (the dual-banked interface) can keep wiring them
/// without leaving the typed layer. Convert to the driver-facing
/// [`HcRfPorts`] with [`TypedHcRfPorts::externalize`] once every endpoint
/// is truly external.
#[derive(Debug)]
pub struct TypedHcRfPorts<'brand> {
    /// Bank geometry.
    pub geometry: RfGeometry,
    /// Read-port select sinks (MSB first).
    pub read_sel: Vec<Sink<'brand>>,
    /// Read-port enable sink.
    pub read_enable: Sink<'brand>,
    /// Read-demux NDROC reset broadcast sink.
    pub read_clear: Sink<'brand>,
    /// Write-port select sinks (MSB first).
    pub write_sel: Vec<Sink<'brand>>,
    /// Write-port enable sink.
    pub write_enable: Sink<'brand>,
    /// Write-demux NDROC reset broadcast sink.
    pub write_clear: Sink<'brand>,
    /// LoopBuffer SET broadcast sink.
    pub lb_set: Sink<'brand>,
    /// LoopBuffer RESET broadcast sink.
    pub lb_reset: Sink<'brand>,
    /// HC-READ latch broadcast sink.
    pub hcread_read: Sink<'brand>,
    /// HC-READ counter reset broadcast sink.
    pub hcread_reset: Sink<'brand>,
    /// Per-column HC-WRITE LSB sinks.
    pub data_b0: Vec<Sink<'brand>>,
    /// Per-column HC-WRITE MSB sinks.
    pub data_b1: Vec<Sink<'brand>>,
    /// Per-column HC-READ LSB output wires.
    pub hcread_b0: Vec<Wire<'brand>>,
    /// Per-column HC-READ MSB output wires.
    pub hcread_b1: Vec<Wire<'brand>>,
    /// Per-column HC-READ counter carry wires (silent by design).
    pub carries: Vec<Wire<'brand>>,
    /// Storage cells, `[register][column]`.
    pub cells: Vec<Vec<ComponentId>>,
}

impl<'brand> TypedHcRfPorts<'brand> {
    /// Declares every remaining endpoint external — inputs driven by the
    /// simulator, outputs observed by probes — and returns the Pin-level
    /// ports for the [`HcBank`] driver.
    pub fn externalize(self, b: &mut TypedBuilder<'brand>) -> HcRfPorts {
        HcRfPorts {
            geometry: self.geometry,
            read_sel: self.read_sel.into_iter().map(|s| b.external(s)).collect(),
            read_enable: b.external(self.read_enable),
            read_clear: b.external(self.read_clear),
            write_sel: self.write_sel.into_iter().map(|s| b.external(s)).collect(),
            write_enable: b.external(self.write_enable),
            write_clear: b.external(self.write_clear),
            lb_set: b.external(self.lb_set),
            lb_reset: b.external(self.lb_reset),
            hcread_read: b.external(self.hcread_read),
            hcread_reset: b.external(self.hcread_reset),
            data_b0: self.data_b0.into_iter().map(|s| b.external(s)).collect(),
            data_b1: self.data_b1.into_iter().map(|s| b.external(s)).collect(),
            hcread_b0: self.hcread_b0.into_iter().map(|w| b.expose(w)).collect(),
            hcread_b1: self.hcread_b1.into_iter().map(|w| b.expose(w)).collect(),
            carries: self.carries.into_iter().map(|w| b.expose(w)).collect(),
            cells: self.cells,
        }
    }
}

/// Typed twin of [`build_hc_rf`]: identical cells, labels, scopes, and
/// creation order (so raw and typed banks digest identically), with the
/// bank's internal wiring legality enforced by construction.
pub fn build_hc_rf_typed<'b>(b: &mut TypedBuilder<'b>, geometry: RfGeometry) -> TypedHcRfPorts<'b> {
    let n = geometry.registers();
    let c = geometry.hc_columns();
    let levels = geometry.demux_levels();

    // Storage. Endpoint slots are Option-wrapped so later sections can
    // consume each cell's CLK/D/Q exactly once.
    struct CellSlot<'b> {
        clk: Option<Sink<'b>>,
        d: Option<Sink<'b>>,
        q: Option<Wire<'b>>,
    }
    let mut cells: Vec<Vec<ComponentId>> = Vec::with_capacity(n);
    let mut cell_slots: Vec<Vec<CellSlot<'b>>> = Vec::with_capacity(n);
    for r in 0..n {
        let mut row_ids = Vec::with_capacity(c);
        let mut row_slots = Vec::with_capacity(c);
        b.scoped(format!("reg{r}"), |b| {
            for _ in 0..c {
                let cell = b.hcdro();
                row_ids.push(cell.id);
                row_slots.push(CellSlot {
                    clk: Some(cell.clk),
                    d: Some(cell.d),
                    q: Some(cell.q),
                });
            }
        });
        cells.push(row_ids);
        cell_slots.push(row_slots);
    }

    // Read port: demux -> HC-CLK per register -> column broadcast -> CLK.
    let (read_enable, read_sel, read_clear) = b.scoped("read", |b| {
        let mut d = build_demux_typed(b, levels);
        for (r, out) in d.take_outputs().into_iter().enumerate() {
            let clk = build_hc_clk_typed(b);
            b.bind(out, clk.input);
            let targets: Vec<Sink<'b>> = cell_slots[r]
                .iter_mut()
                .map(|s| s.clk.take().expect("cell CLK unconsumed"))
                .collect();
            let fan = broadcast_to_typed(b, targets);
            b.bind(clk.output, fan);
        }
        (d.enable, d.sel_set, d.reset)
    });

    // Write port: demux -> HC-CLK per register -> DAND gate broadcast.
    struct DandSlot<'b> {
        a: Option<Sink<'b>>,
        b: Option<Sink<'b>>,
        out: Option<Wire<'b>>,
    }
    let mut dand_slots: Vec<Vec<DandSlot<'b>>> = Vec::with_capacity(n);
    let (write_enable, write_sel, write_clear) = b.scoped("write", |b| {
        let mut d = build_demux_typed(b, levels);
        for _ in 0..n {
            dand_slots.push(
                (0..c)
                    .map(|_| {
                        let g = b.dand();
                        DandSlot {
                            a: Some(g.a),
                            b: Some(g.b),
                            out: Some(g.out),
                        }
                    })
                    .collect(),
            );
        }
        for (r, out) in d.take_outputs().into_iter().enumerate() {
            let clk = build_hc_clk_typed(b);
            b.bind(out, clk.input);
            let gates: Vec<Sink<'b>> = dand_slots[r]
                .iter_mut()
                .map(|g| g.a.take().expect("gate A unconsumed"))
                .collect();
            let fan = broadcast_to_typed(b, gates);
            b.bind(clk.output, fan);
            for (gate, cell) in dand_slots[r].iter_mut().zip(cell_slots[r].iter_mut()) {
                let g_out = gate.out.take().expect("gate OUT unconsumed");
                let d_in = cell.d.take().expect("cell D unconsumed");
                b.bind(g_out, d_in);
            }
        }
        (d.enable, d.sel_set, d.reset)
    });

    // Data path per column: HC-WRITE -> join merger (with loopback) ->
    // register broadcast -> DAND data inputs.
    let mut data_b0 = Vec::with_capacity(c);
    let mut data_b1 = Vec::with_capacity(c);
    let mut join_loopback_in: Vec<Sink<'b>> = Vec::with_capacity(c);
    b.push_scope("datapath".to_string());
    for col in 0..c {
        let w = build_hc_write_typed(b);
        data_b0.push(w.b0);
        data_b1.push(w.b1);
        let join = b.merger();
        b.bind(w.output, join.in_a);
        join_loopback_in.push(join.in_b);
        let targets: Vec<Sink<'b>> = dand_slots
            .iter_mut()
            .map(|row| row[col].b.take().expect("gate B unconsumed"))
            .collect();
        let fan = broadcast_to_typed(b, targets);
        b.bind(join.out, fan);
    }
    b.pop_scope();

    // Output port: column merger trees -> LoopBuffer -> split into HC-READ
    // and loopback.
    let mut lb_set_sinks = Vec::with_capacity(c);
    let mut lb_reset_sinks = Vec::with_capacity(c);
    let mut hcread_read_sinks = Vec::with_capacity(c);
    let mut hcread_reset_sinks = Vec::with_capacity(c);
    let mut hcread_b0 = Vec::with_capacity(c);
    let mut hcread_b1 = Vec::with_capacity(c);
    let mut carries = Vec::with_capacity(c);
    b.push_scope("output".to_string());
    for (col, loopback) in join_loopback_in.into_iter().enumerate() {
        let inputs: Vec<Wire<'b>> = cell_slots
            .iter_mut()
            .map(|row| row[col].q.take().expect("cell Q unconsumed"))
            .collect();
        let merged = b.join(inputs);
        let lb = b.ndro();
        b.bind(merged, lb.clk);
        lb_set_sinks.push(lb.set);
        lb_reset_sinks.push(lb.reset);
        let split = b.splitter();
        b.bind(lb.out, split.input);
        let reader = build_hc_read_typed(b);
        b.bind(split.out0, reader.input);
        b.bind(split.out1, loopback);
        hcread_read_sinks.push(reader.read);
        hcread_reset_sinks.push(reader.reset);
        hcread_b0.push(reader.b0);
        hcread_b1.push(reader.b1);
        carries.push(reader.carry);
    }
    let lb_set = broadcast_to_typed(b, lb_set_sinks);
    let lb_reset = broadcast_to_typed(b, lb_reset_sinks);
    let hcread_read = broadcast_to_typed(b, hcread_read_sinks);
    let hcread_reset = broadcast_to_typed(b, hcread_reset_sinks);
    b.pop_scope();

    TypedHcRfPorts {
        geometry,
        read_sel,
        read_enable,
        read_clear,
        write_sel,
        write_enable,
        write_clear,
        lb_set,
        lb_reset,
        hcread_read,
        hcread_reset,
        data_b0,
        data_b1,
        hcread_b0,
        hcread_b1,
        carries,
        cells,
    }
}

/// Driver state for one bank: probes plus the path-delay bookkeeping needed
/// to align pulse trains at the dynamic-AND write gates.
#[derive(Debug)]
pub struct HcBank {
    /// Bank ports (pins may be re-pointed at interface taps by the
    /// dual-banked wrapper).
    pub ports: HcRfPorts,
    /// Per-column HC-READ LSB probes.
    pub b0_probes: Vec<ProbeId>,
    /// Per-column HC-READ MSB probes.
    pub b1_probes: Vec<ProbeId>,
    /// Extra delay on enable/select paths before the demux (interface taps).
    pub extra_enable_ps: f64,
    /// Extra delay on the data path before HC-WRITE (interface taps).
    pub extra_data_ps: f64,
}

impl HcBank {
    /// Creates the driver state, attaching HC-READ probes.
    pub fn new(sim: &mut Simulator, ports: HcRfPorts) -> Self {
        let b0_probes = ports
            .hcread_b0
            .iter()
            .enumerate()
            .map(|(i, &p)| sim.probe(p, format!("B0[{i}]")))
            .collect();
        let b1_probes = ports
            .hcread_b1
            .iter()
            .enumerate()
            .map(|(i, &p)| sim.probe(p, format!("B1[{i}]")))
            .collect();
        HcBank {
            ports,
            b0_probes,
            b1_probes,
            extra_enable_ps: 0.0,
            extra_data_ps: 0.0,
        }
    }

    fn levels(&self) -> usize {
        self.ports.geometry.demux_levels()
    }

    fn head_start_ps(&self) -> f64 {
        sel_head_start_ps(self.levels())
    }

    /// Enable-path latency from injection to the first pulse at a cell's
    /// CLK (read port) or at the DAND gate input (write port) — the two
    /// ports are structurally identical up to that point.
    fn enable_to_cell_ps(&self) -> f64 {
        self.extra_enable_ps
            + self.levels() as f64 * NDROC_PROP_PS
            + HC_CLK_FIRST_PS
            + broadcast_depth(self.ports.geometry.hc_columns()) as f64 * SPLITTER_DELAY_PS
    }

    /// Latency from a cell's popped pulse to the DAND data input via the
    /// LoopBuffer and loopback path.
    fn cell_to_gate_loopback_ps(&self) -> f64 {
        let n = self.ports.geometry.registers();
        HCDRO_CLK_TO_OUT_PS
            + merge_depth(n) as f64 * MERGER_DELAY_PS
            + NDRO_CLK_TO_OUT_PS
            + SPLITTER_DELAY_PS
            + MERGER_DELAY_PS // loopback join
            + broadcast_depth(n) as f64 * SPLITTER_DELAY_PS
    }

    /// Latency from a data injection to the DAND data input via HC-WRITE.
    fn data_to_gate_ps(&self) -> f64 {
        self.extra_data_ps
            + HC_WRITE_SLOT0_PS
            + MERGER_DELAY_PS
            + broadcast_depth(self.ports.geometry.registers()) as f64 * SPLITTER_DELAY_PS
    }

    fn fire(&self, sim: &mut Simulator, sel: &[Pin], enable: Pin, addr: usize, t: Time) {
        let levels = self.levels();
        for (level, &pin) in sel.iter().enumerate() {
            if (addr >> (levels - 1 - level)) & 1 == 1 {
                sim.inject(pin, t);
            }
        }
        sim.inject(enable, t + Duration::from_ps(self.head_start_ps()));
    }

    /// Performs a restoring read of `reg`, returning the register value.
    /// `t` is the operation start; the caller runs the simulator and should
    /// afterwards call [`HcBank::finish_op`].
    pub fn read_op(&self, sim: &mut Simulator, reg: usize, t: Time) -> u64 {
        sim.clear_all_probes();
        // Arm the LoopBuffer for restoration.
        sim.inject(self.ports.lb_set, t);
        // Fire the read port.
        self.fire(sim, &self.ports.read_sel, self.ports.read_enable, reg, t);
        // Re-arm the write port at the same register so the loopback train
        // meets the tripled write enable at the DAND gates. Both ports share
        // the same enable-path latency, so the write enable simply lags the
        // read enable by the cell-to-gate loopback latency.
        let t_wen = t + Duration::from_ps(self.head_start_ps() + self.cell_to_gate_loopback_ps());
        for (level, &pin) in self.ports.write_sel.iter().enumerate() {
            if (reg >> (self.levels() - 1 - level)) & 1 == 1 {
                sim.inject(pin, t);
            }
        }
        sim.inject(self.ports.write_enable, t_wen);
        sim.run();

        // Latch and read the HC-READ counters.
        let t_latch = sim.now() + Duration::from_ps(20.0);
        sim.inject(self.ports.hcread_read, t_latch);
        sim.run();
        let mut value = 0u64;
        for col in 0..self.ports.geometry.hc_columns() {
            let b0 = !sim.probe_trace(self.b0_probes[col]).is_empty() as u64;
            let b1 = !sim.probe_trace(self.b1_probes[col]).is_empty() as u64;
            value |= (b0 | (b1 << 1)) << (2 * col);
        }
        value
    }

    /// Erases `reg` by reading it out into a reset LoopBuffer (the paper's
    /// reset-port-free erase, §IV-B "Write operation").
    pub fn erase_op(&self, sim: &mut Simulator, reg: usize, t: Time) {
        sim.inject(self.ports.lb_reset, t);
        self.fire(sim, &self.ports.read_sel, self.ports.read_enable, reg, t);
        sim.run();
    }

    /// Writes `value` into an (already erased) `reg` through HC-WRITE.
    pub fn write_op(&self, sim: &mut Simulator, reg: usize, value: u64, t: Time) {
        self.write_op_skewed(sim, reg, value, t, 0.0);
    }

    /// [`HcBank::write_op`] with a deliberate skew (ps, may be negative)
    /// on the data injection relative to its nominal alignment — used by
    /// the margin analysis to map the dynamic-AND coincidence window.
    pub fn write_op_skewed(
        &self,
        sim: &mut Simulator,
        reg: usize,
        value: u64,
        t: Time,
        skew_ps: f64,
    ) {
        self.fire(sim, &self.ports.write_sel, self.ports.write_enable, reg, t);
        // Align the HC-WRITE output train with the tripled write enable at
        // the DAND gates.
        let t_gate = t + Duration::from_ps(self.head_start_ps() + self.enable_to_cell_ps());
        let t_data = if skew_ps >= 0.0 {
            t_gate - Duration::from_ps(self.data_to_gate_ps()) + Duration::from_ps(skew_ps)
        } else {
            t_gate - Duration::from_ps(self.data_to_gate_ps()) - Duration::from_ps(-skew_ps)
        };
        for col in 0..self.ports.geometry.hc_columns() {
            let pair = (value >> (2 * col)) & 0b11;
            if pair & 1 != 0 {
                sim.inject(self.ports.data_b0[col], t_data);
            }
            if pair & 2 != 0 {
                sim.inject(self.ports.data_b1[col], t_data);
            }
        }
        sim.run();
    }

    /// Clears demux state and HC-READ counters after an operation.
    pub fn finish_op(&self, sim: &mut Simulator) {
        let t = sim.now() + Duration::from_ps(20.0);
        sim.inject(self.ports.read_clear, t);
        sim.inject(self.ports.write_clear, t);
        sim.inject(self.ports.hcread_reset, t);
        sim.run();
    }

    /// Peeks the stored value of `reg` without disturbing state.
    pub fn peek(&self, sim: &Simulator, reg: usize) -> u64 {
        let mut v = 0u64;
        for (col, &cell) in self.ports.cells[reg].iter().enumerate() {
            let count = sim.netlist().component(cell).stored().unwrap_or(0) as u64;
            v |= count << (2 * col);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Fingerprint = (Vec<(String, String)>, Vec<(usize, u8, usize, u8, u64)>);

    fn fingerprint(n: &sfq_sim::netlist::Netlist) -> Fingerprint {
        let comps = n
            .iter()
            .map(|(_, label, c)| (c.kind().to_string(), label.to_string()))
            .collect();
        let mut wires: Vec<_> = n
            .wires()
            .map(|w| {
                (
                    w.from.component.index(),
                    w.from.index,
                    w.to.component.index(),
                    w.to.index,
                    w.delay.as_fs(),
                )
            })
            .collect();
        wires.sort_unstable();
        (comps, wires)
    }

    #[test]
    fn typed_bank_elaborates_identically_to_raw() {
        for g in [RfGeometry::paper_4x4(), RfGeometry::paper_16x16()] {
            let mut b = CircuitBuilder::new();
            let raw_ports = build_hc_rf(&mut b, g);
            let raw_net = b.finish();

            let (elab, typed_ports) = TypedBuilder::elaborate(|b| {
                let pt = build_hc_rf_typed(b, g);
                pt.externalize(b)
            });
            elab.assert_total();

            assert_eq!(fingerprint(&raw_net), fingerprint(&elab.netlist), "{g}");
            assert_eq!(raw_ports.read_sel, typed_ports.read_sel, "{g}");
            assert_eq!(raw_ports.read_enable, typed_ports.read_enable, "{g}");
            assert_eq!(raw_ports.read_clear, typed_ports.read_clear, "{g}");
            assert_eq!(raw_ports.write_sel, typed_ports.write_sel, "{g}");
            assert_eq!(raw_ports.write_enable, typed_ports.write_enable, "{g}");
            assert_eq!(raw_ports.write_clear, typed_ports.write_clear, "{g}");
            assert_eq!(raw_ports.lb_set, typed_ports.lb_set, "{g}");
            assert_eq!(raw_ports.lb_reset, typed_ports.lb_reset, "{g}");
            assert_eq!(raw_ports.hcread_read, typed_ports.hcread_read, "{g}");
            assert_eq!(raw_ports.hcread_reset, typed_ports.hcread_reset, "{g}");
            assert_eq!(raw_ports.data_b0, typed_ports.data_b0, "{g}");
            assert_eq!(raw_ports.data_b1, typed_ports.data_b1, "{g}");
            assert_eq!(raw_ports.hcread_b0, typed_ports.hcread_b0, "{g}");
            assert_eq!(raw_ports.hcread_b1, typed_ports.hcread_b1, "{g}");
            assert_eq!(raw_ports.carries, typed_ports.carries, "{g}");
            assert_eq!(raw_ports.cells, typed_ports.cells, "{g}");
        }
    }
}
