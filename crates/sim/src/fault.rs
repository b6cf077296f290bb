//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] describes how a run deviates from the ideal circuit:
//!
//! * **pin faults** — drop or duplicate the N-th pulse delivered to a named
//!   input pin (modelling a missing or doubled fluxon);
//! * **spurious pulses** — extra stimuli injected at chosen times
//!   (modelling flux trapping / noise-induced switching);
//! * **delay variation** — every component instance gets a persistent
//!   multiplicative delay factor drawn from a bounded Gaussian
//!   (σ as a fraction of nominal), modelling per-device process variation.
//!
//! All randomness derives from the plan's single `u64` seed via
//! [`Rng64::fork`], keyed by component index — so the perturbation of a
//! given cell never depends on event order, and identical seed + plan
//! reproduce identical traces, violations, and yield numbers.
//!
//! Install a plan with
//! [`Simulator::set_fault_plan`](crate::simulator::Simulator::set_fault_plan).

use std::collections::HashMap;

use crate::netlist::{ComponentId, Pin};
use crate::rng::Rng64;
use crate::time::{Duration, Time};

/// What to do to a counted pulse delivery on a pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PinAction {
    /// Swallow the pulse.
    Drop,
    /// Deliver it, plus an echo after the offset.
    Duplicate(Duration),
}

/// A deterministic fault-injection plan (builder-style).
///
/// # Examples
///
/// Pins come from the netlist under test — ids cannot be forged, so plans
/// always target real components:
///
/// ```
/// use sfq_sim::component::{Component, PulseContext};
/// use sfq_sim::fault::FaultPlan;
/// use sfq_sim::netlist::{Netlist, Pin};
/// use sfq_sim::time::{Duration, Time};
///
/// #[derive(Debug)]
/// struct Sink;
/// impl Component for Sink {
///     fn kind(&self) -> &'static str {
///         "sink"
///     }
///     fn pulse(&mut self, _pin: u8, _now: Time, _ctx: &mut PulseContext<'_>) {}
/// }
///
/// let mut netlist = Netlist::new();
/// let sink = netlist.add("sink", Box::new(Sink));
/// let pin = Pin::new(sink, 0);
/// let plan = FaultPlan::new(0xfeed)
///     .drop_nth(pin, 1)
///     .duplicate_nth(pin, 3, Duration::from_ps(2.0))
///     .with_delay_sigma(0.05);
/// assert_eq!(plan.seed(), 0xfeed);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    delay_sigma: f64,
    /// `(pin, one-based delivery ordinal) -> action`.
    pin_faults: HashMap<(Pin, u64), PinAction>,
    spurious: Vec<(Pin, Time)>,
}

impl FaultPlan {
    /// Creates an empty plan with the given randomness seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_sigma: 0.0,
            pin_faults: HashMap::new(),
            spurious: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-instance delay variation, σ as a fraction of nominal delay.
    pub fn delay_sigma(&self) -> f64 {
        self.delay_sigma
    }

    /// Drops the `nth` (1-based) pulse delivered to `pin`.
    ///
    /// # Panics
    ///
    /// Panics if `nth` is zero.
    #[must_use]
    pub fn drop_nth(mut self, pin: Pin, nth: u64) -> Self {
        assert!(nth >= 1, "pulse ordinals are 1-based");
        self.pin_faults.insert((pin, nth), PinAction::Drop);
        self
    }

    /// Duplicates the `nth` (1-based) pulse delivered to `pin`: the
    /// original is delivered and an echo follows `offset` later.
    ///
    /// # Panics
    ///
    /// Panics if `nth` is zero.
    #[must_use]
    pub fn duplicate_nth(mut self, pin: Pin, nth: u64, offset: Duration) -> Self {
        assert!(nth >= 1, "pulse ordinals are 1-based");
        self.pin_faults
            .insert((pin, nth), PinAction::Duplicate(offset));
        self
    }

    /// Adds a spurious stimulus pulse on `pin` at absolute time `at`.
    #[must_use]
    pub fn spurious(mut self, pin: Pin, at: Time) -> Self {
        self.spurious.push((pin, at));
        self
    }

    /// Sets bounded-Gaussian per-instance delay variation (σ as a fraction
    /// of nominal, e.g. `0.05` for 5 %). Draws are clamped to ±3σ and the
    /// resulting factor floors at 0.05× so delays stay positive.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_frac` is negative or not finite.
    #[must_use]
    pub fn with_delay_sigma(mut self, sigma_frac: f64) -> Self {
        assert!(
            sigma_frac.is_finite() && sigma_frac >= 0.0,
            "σ must be a non-negative fraction"
        );
        self.delay_sigma = sigma_frac;
        self
    }

    /// The planned spurious pulses.
    pub fn spurious_pulses(&self) -> &[(Pin, Time)] {
        &self.spurious
    }
}

/// Runtime state of an installed plan: delivery counters, the delay-factor
/// cache, and applied-fault tallies.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Per-pin delivery counts. Only pin faults read them, so a plan
    /// without pin faults never touches the map.
    deliveries: HashMap<Pin, u64>,
    /// The seed's standard-normal draws, shared by every σ.
    draws: GaussianDraws,
    /// Delay factors indexed by component id, computed on first use;
    /// [`UNDRAWN`] marks a component not yet delivered to.
    factors: Vec<f64>,
    pub(crate) dropped: u64,
    pub(crate) duplicated: u64,
}

/// Placeholder in the dense factor cache. Real factors floor at 0.05, so
/// zero can never be a drawn value.
const UNDRAWN: f64 = 0.0;

/// The clamped standard-normal draw `Rng64::fork(seed, id)` yields for each
/// component id, drawn on first use. A plan's delay factors scale these by
/// its σ, so plans that differ only in σ — the probes of one margin
/// bisection — can share one set instead of paying a logarithm and a
/// cosine per component per probe.
#[derive(Debug, Clone)]
pub(crate) struct GaussianDraws {
    seed: u64,
    /// Draws indexed by component id; NaN marks one not yet drawn.
    g: Vec<f64>,
}

impl GaussianDraws {
    fn new(seed: u64) -> Self {
        GaussianDraws {
            seed,
            g: Vec::new(),
        }
    }

    /// The draw of component `i`.
    #[inline]
    fn get(&mut self, i: usize) -> f64 {
        if i >= self.g.len() {
            self.g.resize(i + 1, f64::NAN);
        }
        let g = &mut self.g[i];
        if g.is_nan() {
            *g = Rng64::fork(self.seed, i as u64).gaussian_clamped(3.0);
        }
        *g
    }
}

/// What the simulator should do with one pulse delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DeliveryFault {
    pub(crate) drop: bool,
    pub(crate) echo_after: Option<Duration>,
}

impl DeliveryFault {
    /// Deliver the pulse unchanged.
    const NONE: DeliveryFault = DeliveryFault {
        drop: false,
        echo_after: None,
    };
}

impl FaultState {
    #[cfg(test)]
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState::reusing(plan, None)
    }

    /// A fresh state for `plan` that keeps `draws` if they were drawn for
    /// the plan's seed and discards them otherwise.
    pub(crate) fn reusing(plan: FaultPlan, draws: Option<GaussianDraws>) -> Self {
        let draws = match draws {
            Some(draws) if draws.seed == plan.seed => draws,
            _ => GaussianDraws::new(plan.seed),
        };
        FaultState {
            plan,
            deliveries: HashMap::new(),
            draws,
            factors: Vec::new(),
            dropped: 0,
            duplicated: 0,
        }
    }

    /// Gives up the standard-normal draws, for the next plan to reuse.
    pub(crate) fn into_draws(self) -> GaussianDraws {
        self.draws
    }

    /// Components whose Gaussian draw is cached.
    #[cfg(test)]
    pub(crate) fn cached_draws(&self) -> usize {
        self.draws.g.iter().filter(|g| !g.is_nan()).count()
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counts a delivery on `pin` and returns the planned deviation, if any.
    #[inline]
    pub(crate) fn on_delivery(&mut self, pin: Pin) -> DeliveryFault {
        if self.plan.pin_faults.is_empty() {
            return DeliveryFault::NONE;
        }
        let n = self.deliveries.entry(pin).or_insert(0);
        *n += 1;
        match self.plan.pin_faults.get(&(pin, *n)) {
            Some(PinAction::Drop) => {
                self.dropped += 1;
                DeliveryFault {
                    drop: true,
                    echo_after: None,
                }
            }
            Some(PinAction::Duplicate(off)) => {
                self.duplicated += 1;
                DeliveryFault {
                    drop: false,
                    echo_after: Some(*off),
                }
            }
            None => DeliveryFault::NONE,
        }
    }

    /// The persistent delay factor of a component instance. Derived from
    /// `fork(seed, component index)`, so it is independent of event order.
    #[inline]
    pub(crate) fn delay_factor(&mut self, id: ComponentId) -> f64 {
        if self.plan.delay_sigma == 0.0 {
            return 1.0;
        }
        let i = id.index();
        if i >= self.factors.len() {
            self.factors.resize(i + 1, UNDRAWN);
        }
        let factor = &mut self.factors[i];
        if *factor == UNDRAWN {
            *factor = (1.0 + self.plan.delay_sigma * self.draws.get(i)).max(0.05);
        }
        *factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Same-crate tests may build ids directly; external callers obtain
    // them from a netlist.
    fn pin(i: u32, p: u8) -> Pin {
        Pin::new(ComponentId(i), p)
    }

    #[test]
    fn builder_accumulates() {
        let plan = FaultPlan::new(1)
            .drop_nth(pin(0, 0), 2)
            .duplicate_nth(pin(0, 1), 1, Duration::from_ps(3.0))
            .spurious(pin(1, 0), Time::from_ps(5.0))
            .with_delay_sigma(0.1);
        assert_eq!(plan.delay_sigma(), 0.1);
        assert_eq!(plan.spurious_pulses().len(), 1);
    }

    #[test]
    fn delivery_counting_is_per_pin_and_one_based() {
        // With and without delay variation: σ must not disturb counting.
        for sigma in [0.0, 0.2] {
            let plan = FaultPlan::new(0)
                .drop_nth(pin(0, 0), 2)
                .with_delay_sigma(sigma);
            let mut st = FaultState::new(plan);
            assert!(!st.on_delivery(pin(0, 0)).drop, "1st delivery passes");
            assert!(!st.on_delivery(pin(0, 1)).drop, "other pin not counted");
            assert!(st.on_delivery(pin(0, 0)).drop, "2nd delivery dropped");
            assert!(!st.on_delivery(pin(0, 0)).drop, "3rd passes again");
            assert_eq!(st.dropped, 1);
            assert_eq!(st.delay_factor(ComponentId(0)) == 1.0, sigma == 0.0);
        }
    }

    #[test]
    fn duplicate_echoes_once() {
        for sigma in [0.0, 0.2] {
            let plan = FaultPlan::new(0)
                .duplicate_nth(pin(2, 0), 1, Duration::from_ps(4.0))
                .with_delay_sigma(sigma);
            let mut st = FaultState::new(plan);
            let f = st.on_delivery(pin(2, 0));
            assert_eq!(f.echo_after, Some(Duration::from_ps(4.0)));
            assert!(!f.drop);
            assert_eq!(st.on_delivery(pin(2, 0)).echo_after, None);
            assert_eq!(st.duplicated, 1);
        }
    }

    #[test]
    fn plans_without_pin_faults_count_nothing() {
        let mut st = FaultState::new(FaultPlan::new(3).with_delay_sigma(0.1));
        for _ in 0..4 {
            assert_eq!(st.on_delivery(pin(1, 0)), DeliveryFault::NONE);
        }
        assert!(st.deliveries.is_empty(), "no reader, no counters");
        assert_eq!((st.dropped, st.duplicated), (0, 0));
    }

    #[test]
    fn delay_factors_are_stable_and_seeded() {
        let mut a = FaultState::new(FaultPlan::new(9).with_delay_sigma(0.1));
        let mut b = FaultState::new(FaultPlan::new(9).with_delay_sigma(0.1));
        let id = ComponentId(7);
        let f = a.delay_factor(id);
        assert_eq!(f, a.delay_factor(id), "factor is persistent");
        assert_eq!(f, b.delay_factor(id), "same seed, same factor");
        assert!(f > 0.0 && (f - 1.0).abs() <= 0.3 + 1e-12, "bounded: {f}");
        let mut c = FaultState::new(FaultPlan::new(10).with_delay_sigma(0.1));
        assert_ne!(f, c.delay_factor(id), "different seed, different factor");

        // A high index before a low one grows the dense cache past ids
        // not yet drawn; every factor still equals a fresh draw from the
        // component's own forked stream, whatever the touch order.
        let (seed, sigma) = (0xfeed, 0.07);
        let mut st = FaultState::new(FaultPlan::new(seed).with_delay_sigma(sigma));
        for i in [1000u32, 3, 999, 0, 1000, 3, 4096] {
            let g = Rng64::fork(seed, u64::from(i)).gaussian_clamped(3.0);
            let expect = (1.0 + sigma * g).max(0.05);
            assert_eq!(st.delay_factor(ComponentId(i)), expect, "component {i}");
        }
        assert_eq!(st.factors.len(), 4097);

        // Across a reset the simulator hands the draws to the next plan:
        // with the same seed at another σ they are reused and every factor
        // still equals a fresh draw scaled by the new σ.
        let draws = st.into_draws();
        for sigma in [0.31, 0.07] {
            let plan = FaultPlan::new(seed).with_delay_sigma(sigma);
            let mut st = FaultState::reusing(plan, Some(draws.clone()));
            assert_eq!(st.cached_draws(), 5, "same seed keeps the draws");
            for i in [3u32, 1000, 12, 0] {
                let g = Rng64::fork(seed, u64::from(i)).gaussian_clamped(3.0);
                let expect = (1.0 + sigma * g).max(0.05);
                assert_eq!(
                    st.delay_factor(ComponentId(i)),
                    expect,
                    "σ {sigma}, component {i}"
                );
            }
        }
        // A new seed discards them.
        let other = FaultPlan::new(seed + 1).with_delay_sigma(sigma);
        let mut st = FaultState::reusing(other, Some(draws));
        assert_eq!(st.cached_draws(), 0, "new seed starts over");
        let g = Rng64::fork(seed + 1, 3).gaussian_clamped(3.0);
        assert_eq!(st.delay_factor(ComponentId(3)), (1.0 + sigma * g).max(0.05));
    }

    #[test]
    fn zero_sigma_means_unit_factors() {
        let mut st = FaultState::new(FaultPlan::new(1));
        assert_eq!(st.delay_factor(ComponentId(3)), 1.0);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zeroth_pulse_is_rejected() {
        let _ = FaultPlan::new(0).drop_nth(pin(0, 0), 0);
    }
}
