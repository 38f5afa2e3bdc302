//! Event-count energy accounting.

use std::fmt;

use cfr_types::{RecordError, RecordReader, RecordWriter};

/// Accumulated energy for one named component.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ComponentEnergy {
    /// Number of charged events.
    pub events: u64,
    /// Total energy in picojoules.
    pub total_pj: f64,
}

/// Accumulates `(event count, picojoules)` per named component.
///
/// The meter deliberately stores *counts alongside joules*: the paper argues
/// its savings come from reduced access counts, so every experiment report
/// exposes both, and swapping the [`crate::EnergyModel`] coefficients never
/// changes the counts.
///
/// ```
/// use cfr_energy::EnergyMeter;
///
/// let mut meter = EnergyMeter::new();
/// meter.charge("itlb_access", 440.0);
/// meter.charge_n("cfr_read", 3, 4.6);
/// assert_eq!(meter.events("cfr_read"), 3);
/// assert!((meter.total_pj() - 453.8).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, Default)]
pub struct EnergyMeter {
    /// Components sorted by name — the handful of distinct components a
    /// run charges makes a dense sorted `Vec` both faster to look up on
    /// the per-fetch hot path and identical in iteration order to the
    /// `BTreeMap` it replaced (serialization stays byte-for-byte stable).
    components: Vec<(String, ComponentEnergy)>,
    /// Bumped whenever component positions can move (insert/clear), so
    /// [`MeterSlot`] caches know to re-resolve. Excluded from equality
    /// and serialization — it is a lookup cache, not accounting state.
    generation: u32,
}

impl PartialEq for EnergyMeter {
    fn eq(&self, other: &Self) -> bool {
        // `generation` is a lookup-cache version, not accounting state.
        self.components == other.components
    }
}

/// A caller-owned cached position of one component in one meter: lets a
/// hot charge site (e.g. the per-fetch CFR read) skip the by-name lookup
/// while staying exactly equivalent to [`EnergyMeter::charge`]. Invalid
/// slots (fresh, or stale after an insert) transparently re-resolve.
#[derive(Clone, Copy, Debug, Default)]
pub struct MeterSlot {
    generation: u32,
    index: u32,
}

impl EnergyMeter {
    /// Creates an empty meter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one event of `pj` picojoules to `component`.
    #[inline]
    pub fn charge(&mut self, component: &str, pj: f64) {
        self.charge_n(component, 1, pj);
    }

    /// Charges `n` events of `pj_each` picojoules to `component`.
    #[inline]
    pub fn charge_n(&mut self, component: &str, n: u64, pj_each: f64) {
        if n == 0 {
            return;
        }
        // The meter is charged once per modeled event on the simulator's
        // hot path: linear-scan the few components, and allocate the key
        // `String` only on a component's first charge.
        if let Some((_, entry)) = self
            .components
            .iter_mut()
            .find(|(name, _)| name == component)
        {
            entry.events += n;
            entry.total_pj += pj_each * n as f64;
            return;
        }
        self.insert_sorted(
            component.to_owned(),
            ComponentEnergy {
                events: n,
                total_pj: pj_each * n as f64,
            },
        );
    }

    /// Inserts a new component at its sorted position and invalidates
    /// every cached [`MeterSlot`] — the single place positions can move.
    fn insert_sorted(&mut self, name: String, component: ComponentEnergy) {
        let at = self
            .components
            .partition_point(|(n, _)| n.as_str() < name.as_str());
        self.components.insert(at, (name, component));
        self.generation += 1;
    }

    /// [`EnergyMeter::charge`] with a caller-cached component position:
    /// a valid `slot` skips the by-name lookup entirely; a stale or
    /// fresh one falls back to the ordinary charge and re-resolves.
    /// Exactly equivalent to `charge(component, pj)`.
    #[inline]
    pub fn charge_cached(&mut self, slot: &mut MeterSlot, component: &str, pj: f64) {
        if slot.generation == self.generation && (slot.index as usize) < self.components.len() {
            let entry = &mut self.components[slot.index as usize].1;
            entry.events += 1;
            entry.total_pj += pj;
            return;
        }
        self.charge(component, pj);
        slot.index = self
            .components
            .iter()
            .position(|(name, _)| name == component)
            .expect("just charged") as u32;
        slot.generation = self.generation;
    }

    /// Event count for `component` (0 if never charged).
    #[must_use]
    pub fn events(&self, component: &str) -> u64 {
        self.get(component).map_or(0, |c| c.events)
    }

    fn get(&self, component: &str) -> Option<&ComponentEnergy> {
        self.components
            .iter()
            .find(|(name, _)| name == component)
            .map(|(_, c)| c)
    }

    /// Energy in picojoules for `component` (0 if never charged).
    #[must_use]
    pub fn component_pj(&self, component: &str) -> f64 {
        self.get(component).map_or(0.0, |c| c.total_pj)
    }

    /// Total energy across all components, in picojoules.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.components.iter().map(|(_, c)| c.total_pj).sum()
    }

    /// Total energy across all components, in millijoules.
    #[must_use]
    pub fn total_mj(&self) -> f64 {
        crate::pj_to_mj(self.total_pj())
    }

    /// Iterates components in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ComponentEnergy)> {
        self.components.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds another meter's charges into this one.
    pub fn merge(&mut self, other: &EnergyMeter) {
        for (name, c) in &other.components {
            match self.components.iter_mut().find(|(n, _)| n == name) {
                Some((_, entry)) => {
                    entry.events += c.events;
                    entry.total_pj += c.total_pj;
                }
                None => self.insert_sorted(name.clone(), *c),
            }
        }
    }

    /// Resets all counters.
    pub fn clear(&mut self) {
        self.components.clear();
        self.generation += 1;
    }

    /// Serializes as `meter <n>` followed by `n` named [`ComponentEnergy`]
    /// records in name (sorted) order — deterministic, so equal meters
    /// always produce byte-equal records. Component names are single
    /// tokens (`itlb_access`-style identifiers), which
    /// [`EnergyMeter::charge`] callers already uphold.
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("meter");
        w.u64(self.components.len() as u64);
        for (name, component) in &self.components {
            w.token(name);
            component.to_record(w);
        }
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        r.expect("meter")?;
        let n = r.usize()?;
        let mut meter = Self::new();
        for _ in 0..n {
            let name = r.token()?.to_owned();
            let component = ComponentEnergy::from_record(r)?;
            if meter.get(&name).is_some() {
                return Err(RecordError::new(format!("duplicate component {name:?}")));
            }
            meter.insert_sorted(name, component);
        }
        Ok(meter)
    }
}

impl ComponentEnergy {
    /// Serializes as `comp <events> <pj-bits>`.
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("comp");
        w.u64(self.events);
        w.f64(self.total_pj);
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        r.expect("comp")?;
        Ok(Self {
            events: r.u64()?,
            total_pj: r.f64()?,
        })
    }
}

impl fmt::Display for EnergyMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.components.is_empty() {
            return write!(f, "(no energy charged)");
        }
        for (name, c) in &self.components {
            writeln!(
                f,
                "{name:<20} {:>14} events  {:>12.6} mJ",
                c.events,
                crate::pj_to_mj(c.total_pj)
            )?;
        }
        write!(
            f,
            "{:<20} {:>14}  {:>12.6} mJ",
            "TOTAL",
            "",
            self.total_mj()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_meter_is_zero() {
        let m = EnergyMeter::new();
        assert_eq!(m.total_pj(), 0.0);
        assert_eq!(m.events("anything"), 0);
        assert_eq!(m.component_pj("anything"), 0.0);
    }

    #[test]
    fn charges_accumulate() {
        let mut m = EnergyMeter::new();
        m.charge("a", 10.0);
        m.charge("a", 5.0);
        m.charge_n("b", 4, 2.5);
        assert_eq!(m.events("a"), 2);
        assert_eq!(m.events("b"), 4);
        assert!((m.component_pj("a") - 15.0).abs() < 1e-12);
        assert!((m.component_pj("b") - 10.0).abs() < 1e-12);
        assert!((m.total_pj() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn charge_zero_events_is_noop() {
        let mut m = EnergyMeter::new();
        m.charge_n("a", 0, 100.0);
        assert_eq!(m.events("a"), 0);
        assert_eq!(m.total_pj(), 0.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = EnergyMeter::new();
        a.charge("x", 1.0);
        let mut b = EnergyMeter::new();
        b.charge("x", 2.0);
        b.charge("y", 3.0);
        a.merge(&b);
        assert_eq!(a.events("x"), 2);
        assert!((a.total_pj() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets() {
        let mut m = EnergyMeter::new();
        m.charge("x", 1.0);
        m.clear();
        assert_eq!(m.total_pj(), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let mut m = EnergyMeter::new();
        assert!(!format!("{m}").is_empty());
        m.charge("itlb", 440.0);
        let s = format!("{m}");
        assert!(s.contains("itlb"));
        assert!(s.contains("TOTAL"));
    }

    #[test]
    fn meter_record_round_trips() {
        let mut m = EnergyMeter::new();
        m.charge_n("itlb_access", 12_345, 440.25);
        m.charge_n("cfr_read", 99_999, 4.6); // 4.6 has no exact decimal form
        m.charge("cfr_compare", 0.9);
        let mut w = RecordWriter::new();
        m.to_record(&mut w);
        let record = w.finish();
        let mut r = RecordReader::new(&record);
        let back = EnergyMeter::from_record(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, m, "bit-exact round trip, floats included");

        let empty = EnergyMeter::new();
        let mut w = RecordWriter::new();
        empty.to_record(&mut w);
        let record = w.finish();
        assert_eq!(
            EnergyMeter::from_record(&mut RecordReader::new(&record)).unwrap(),
            empty
        );
        // Corruption: truncated component list.
        assert!(EnergyMeter::from_record(&mut RecordReader::new("meter 2 x comp 1 0x0")).is_err());
        // Corruption: duplicate component name.
        assert!(EnergyMeter::from_record(&mut RecordReader::new(
            "meter 2 x comp 1 0x0 x comp 1 0x0"
        ))
        .is_err());
    }

    #[test]
    fn total_mj_matches_pj() {
        let mut m = EnergyMeter::new();
        m.charge_n("x", 1_000_000, 1000.0);
        assert!((m.total_mj() - 1.0).abs() < 1e-9); // 1e9 pJ = 1 mJ
    }
}
