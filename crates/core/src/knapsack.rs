//! The cache-configuration Knapsack solver (the paper's §IV-B,
//! Figures 4 & 5).
//!
//! Choosing which erasure-coded chunks to cache is a 0/1-Knapsack
//! variant: at most one caching option per object, weights are chunk
//! counts, values are popularity-weighted latency improvements. The
//! paper adapts the classic dynamic program with two improvement moves:
//!
//! - **Addition** — append an option to an existing intermediate
//!   configuration, producing a heavier configuration;
//! - **Relaxation** (paper Figure 5) — shrink an option already in the
//!   configuration to a lower weight of the same object, using the freed
//!   space for the new option, keeping total weight constant.
//!
//! Documented deviations from the paper's pseudocode (see DESIGN.md §2):
//! weight keys are snapshotted per option (the pseudocode mutates `MaxV`
//! while iterating it), an option is never added to a configuration that
//! already caches its object (the pseudocode would double-count), and
//! the final answer is the best configuration of weight ≤ capacity
//! rather than exactly capacity.
//!
//! The table is index-based: each intermediate configuration holds dense
//! option ids rather than cloned [`CachingOption`]s, together with an
//! object-membership bitset and a bound on what any relaxation could
//! gain, so almost every (option, configuration) visit is decided in
//! constant time. The moves, their order and their floating-point sums
//! are exactly those of the paper's table.
//!
//! A greedy value-density solver and an exhaustive optimum are included
//! as baselines: §II-D argues greedy can err by as much as 50%, and the
//! tests verify the dynamic program dominates greedy and matches the
//! optimum on small instances.

use crate::options::{CachingOption, ObjectOptions};
use agar_ec::ObjectId;
use std::collections::HashMap;

/// An intermediate or final cache configuration: at most one caching
/// option per object.
#[derive(Clone, Debug, Default)]
pub struct Config {
    options: Vec<CachingOption>,
    weight: u32,
    value: f64,
}

impl Config {
    /// The empty configuration.
    pub fn empty() -> Self {
        Config::default()
    }

    /// Total weight in chunks.
    pub fn weight(&self) -> u32 {
        self.weight
    }

    /// Total popularity-weighted latency improvement.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The chosen options.
    pub fn options(&self) -> &[CachingOption] {
        &self.options
    }

    /// Whether an option for `object` is already present.
    pub fn contains_object(&self, object: ObjectId) -> bool {
        self.options.iter().any(|o| o.object() == object)
    }

    fn push(&mut self, option: CachingOption) {
        debug_assert!(!self.contains_object(option.object()));
        self.weight += option.weight();
        self.value += option.value();
        self.options.push(option);
    }
}

/// Dynamic-programming solver for the cache configuration (paper
/// Figure 4).
#[derive(Clone, Debug)]
pub struct KnapsackSolver {
    /// §VI optimisation: stop after this many additional keys once a
    /// configuration of full capacity weight first exists. `None` runs
    /// the dynamic program to completion.
    stop_keys_after_full: Option<usize>,
    /// Number of sweeps over the option list. The paper's single-table
    /// RELAX can destroy a configuration that a later option needed to
    /// extend; a second sweep recovers most such losses (DESIGN.md
    /// deviation list). The result remains an approximation, as the
    /// paper itself acknowledges (§VII-B).
    passes: usize,
}

impl Default for KnapsackSolver {
    fn default() -> Self {
        KnapsackSolver {
            stop_keys_after_full: None,
            passes: 2,
        }
    }
}

impl KnapsackSolver {
    /// The default solver: full run, two sweeps.
    pub fn new() -> Self {
        KnapsackSolver::default()
    }

    /// Overrides the number of sweeps over the option list (minimum 1).
    /// One sweep is the paper's literal single-pass table.
    #[must_use]
    pub fn with_passes(mut self, passes: usize) -> Self {
        self.passes = passes.max(1);
        self
    }

    /// Enables the paper's §VI early-termination heuristic: the run
    /// stops `keys` keys after a configuration of exactly the capacity
    /// weight first appears, making runtime independent of catalogue
    /// size.
    #[must_use]
    pub fn with_early_termination(mut self, keys: usize) -> Self {
        self.stop_keys_after_full = Some(keys);
        self
    }

    /// Computes the best configuration of weight ≤ `capacity` chunks.
    ///
    /// `POPULATE` from the paper: iterate objects in decreasing
    /// best-value order; for each of the object's options, first try to
    /// relax every intermediate configuration, then try to extend every
    /// intermediate configuration by addition.
    pub fn populate(
        &self,
        all_options: &HashMap<ObjectId, ObjectOptions>,
        capacity: u32,
    ) -> Config {
        if capacity == 0 {
            return Config::empty();
        }
        let keys = ordered_keys(all_options);
        if let Some(config) = uncontended(&keys, capacity) {
            return config;
        }
        let table = OptionTable::new(&keys);
        let cells = self.fill(&table, capacity);
        // Ascending weight order, and `max_by` keeps the last of equal
        // maxima: value ties go to the heaviest configuration.
        cells
            .iter()
            .flatten()
            .max_by(|a, b| {
                a.value
                    .partial_cmp(&b.value)
                    .expect("config values are finite")
            })
            .map_or_else(Config::empty, |cell| cell.to_config(&table))
    }

    /// Runs the dynamic program over every option of `table`. Returns
    /// `MaxV`: `cells[w]` is the best configuration of weight exactly `w`
    /// found, if any. Past the fast path the capacity is below the total
    /// weight of the options, so the dense table is no larger than the
    /// option list.
    fn fill(&self, table: &OptionTable<'_>, capacity: u32) -> Vec<Option<Cell>> {
        let objects = table.objects();
        let mut cells: Vec<Option<Cell>> = (0..=capacity).map(|_| None).collect();
        cells[0] = Some(Cell::empty(table));
        let mut snapshot: Vec<usize> = Vec::new();
        let mut keys_since_full: usize = 0;
        let mut seen_full = false;

        for object in (0..objects).cycle().take(objects * self.passes) {
            for id in table.ids_of(object) {
                let (option_weight, option_value) = (table.weight[id], table.value[id]);
                if option_weight > capacity {
                    continue;
                }
                // Relaxation pass: improve configurations in place
                // (weight unchanged).
                for cell in cells.iter_mut().flatten() {
                    if !cell.holds(object) && cell.may_relax(option_weight, option_value, table) {
                        cell.relax(id, table);
                    }
                }
                // Addition pass: extend configurations to new weights.
                // When the configuration already holds an option for the
                // same object, this becomes a *replacement* (upgrade or
                // downgrade) — without it a small option admitted early
                // could never grow, and the DP would miss optima the
                // exhaustive solver finds (DESIGN.md deviation list).
                // Weights present before the pass are visited in
                // DESCENDING order, the classic 0/1-knapsack trick:
                // additions only ever target heavier weights, so no
                // configuration is overwritten before the pass has
                // extended it.
                snapshot.clear();
                snapshot.extend((0..cells.len()).rev().filter(|&w| cells[w].is_some()));
                for &w in &snapshot {
                    let Some(base) = &cells[w] else { continue };
                    let w = w as u32;
                    // Price the candidate without materialising it:
                    // almost every candidate loses the comparison below.
                    let held = if base.holds(object) {
                        base.ids.iter().position(|&e| table.object[e] == object)
                    } else {
                        None
                    };
                    let (new_weight, new_value) = match held {
                        Some(index) => {
                            let old = base.ids[index];
                            (
                                w - table.weight[old] + option_weight,
                                base.value - table.value[old] + option_value,
                            )
                        }
                        None => (w + option_weight, base.value + option_value),
                    };
                    if new_weight > capacity || new_weight == w {
                        continue;
                    }
                    let target = new_weight as usize;
                    let should_replace = cells[target]
                        .as_ref()
                        .is_none_or(|existing| existing.value < new_value - 1e-12);
                    if should_replace {
                        let candidate = match held {
                            Some(index) => Cell::replaced(&base.ids, index, None, id, table),
                            None => {
                                let mut extended = base.clone();
                                extended.push(id, table);
                                extended.value = new_value;
                                extended
                            }
                        };
                        cells[target] = Some(candidate);
                    }
                }
            }

            if let Some(stop_after) = self.stop_keys_after_full {
                if seen_full {
                    keys_since_full += 1;
                    if keys_since_full >= stop_after {
                        break;
                    }
                } else if cells[capacity as usize].is_some() {
                    seen_full = true;
                }
            }
        }
        cells
    }
}

/// The keys of `POPULATE` in decreasing best-value order (ORDERBY in
/// the paper), ties broken by object id.
fn ordered_keys(all_options: &HashMap<ObjectId, ObjectOptions>) -> Vec<&ObjectOptions> {
    let mut keys: Vec<&ObjectOptions> = all_options.values().collect();
    keys.sort_by(|a, b| {
        b.best_value()
            .partial_cmp(&a.best_value())
            .expect("option values are finite")
            .then(a.object().cmp(&b.object()))
    });
    keys
}

/// Uncontended fast path: when every object's best option fits in the
/// budget simultaneously, the per-object choices are independent and
/// taking each object's maximum-value option is exactly optimal — no
/// dynamic program needed. This is the common shape of the *disk* phase
/// of a two-tier solve, where the tier is sized to hold most of what RAM
/// rejected. Value ties break towards the heavier option, matching the
/// dynamic program (its final scan keeps the last — heaviest —
/// configuration among equal values): a free upgrade to more cached
/// chunks at identical modelled value.
fn uncontended(keys: &[&ObjectOptions], capacity: u32) -> Option<Config> {
    let best_per_object: Vec<&CachingOption> = keys
        .iter()
        .filter_map(|opts| {
            opts.iter()
                .filter(|o| o.value() > 0.0 && o.weight() > 0)
                .max_by(|a, b| {
                    a.value()
                        .partial_cmp(&b.value())
                        .expect("option values are finite")
                        .then(a.weight().cmp(&b.weight()))
                })
        })
        .collect();
    let best_total: u64 = best_per_object.iter().map(|o| u64::from(o.weight())).sum();
    if best_total > u64::from(capacity) {
        return None;
    }
    let mut config = Config::empty();
    for option in best_per_object {
        config.push(option.clone());
    }
    Some(config)
}

/// Rounding slack of the relaxation bound, relative to the magnitude of
/// the values a candidate sums. A candidate is a four-term float sum, so
/// it can clear the acceptance test by a few ulps even when the exact
/// bound says it cannot (the differential tests catch a bound without
/// slack). The error of that sum and of the bound stays below ~8 ulps of
/// the magnitude; the slack is 8× wider, so the bound only skips scans
/// that cannot accept.
const RELAX_BOUND_SLACK: f64 = 64.0 * f64::EPSILON;

/// Every option of one solve under a dense id. Ids run object by object
/// in key order and weight-ascending within an object, so the option of
/// the same object `d` chunks lighter than id `i` is id `i - d`.
struct OptionTable<'a> {
    options: Vec<&'a CachingOption>,
    /// Dense object index (position in key order) of each id.
    object: Vec<usize>,
    weight: Vec<u32>,
    value: Vec<f64>,
    /// `first[o]..first[o + 1]` are the ids of object `o`.
    first: Vec<usize>,
    max_weight: u32,
    max_abs_value: f64,
}

impl<'a> OptionTable<'a> {
    fn new(keys: &[&'a ObjectOptions]) -> Self {
        let mut table = OptionTable {
            options: Vec::new(),
            object: Vec::new(),
            weight: Vec::new(),
            value: Vec::new(),
            first: Vec::with_capacity(keys.len() + 1),
            max_weight: 0,
            max_abs_value: 0.0,
        };
        for (object, options) in keys.iter().enumerate() {
            table.first.push(table.options.len());
            for (position, option) in options.iter().enumerate() {
                // `ObjectOptions::by_weight` indexes by position, which
                // the shrink arithmetic on ids relies on.
                debug_assert_eq!(option.weight() as usize, position + 1);
                table.options.push(option);
                table.object.push(object);
                table.weight.push(option.weight());
                table.value.push(option.value());
                table.max_weight = table.max_weight.max(option.weight());
                table.max_abs_value = table.max_abs_value.max(option.value().abs());
            }
        }
        table.first.push(table.options.len());
        table
    }

    fn objects(&self) -> usize {
        self.first.len() - 1
    }

    fn ids_of(&self, object: usize) -> std::ops::Range<usize> {
        self.first[object]..self.first[object + 1]
    }
}

/// One `MaxV` entry: a configuration as option ids in the order the
/// options were added, plus what lets most visits skip it.
#[derive(Clone)]
struct Cell {
    ids: Vec<usize>,
    /// The configuration's value, accumulated exactly as the paper's
    /// table does: appended options add to it, replacements re-sum it in
    /// option order.
    value: f64,
    /// Bitset over dense object indices present in `ids`.
    members: Vec<u64>,
    /// `min_loss[w]`: the least value any one entry loses when shrunk by
    /// `w` chunks (to the same object's lighter option, or out of the
    /// configuration); infinite when no entry weighs `w` or more.
    min_loss: Vec<f64>,
}

impl Cell {
    fn empty(table: &OptionTable<'_>) -> Cell {
        Cell {
            ids: Vec::new(),
            value: 0.0,
            members: vec![0u64; table.objects().div_ceil(64)],
            min_loss: vec![f64::INFINITY; table.max_weight as usize + 1],
        }
    }

    /// Appends option `id`, keeping `members` and `min_loss` in step;
    /// the caller accounts for the value.
    fn push(&mut self, id: usize, table: &OptionTable<'_>) {
        let object = table.object[id];
        self.members[object / 64] |= 1 << (object % 64);
        let weight = table.weight[id] as usize;
        for shrink in 1..=weight {
            let remaining = if shrink < weight {
                table.value[id - shrink]
            } else {
                0.0
            };
            self.min_loss[shrink] = self.min_loss[shrink].min(table.value[id] - remaining);
        }
        self.ids.push(id);
    }

    /// Drops the entry at `index`, then appends `replacement` (if any)
    /// and `addition`, re-summing the value in the new option order.
    fn replaced(
        ids: &[usize],
        index: usize,
        replacement: Option<usize>,
        addition: usize,
        table: &OptionTable<'_>,
    ) -> Cell {
        let mut cell = Cell::empty(table);
        let kept = ids[..index].iter().chain(&ids[index + 1..]).copied();
        for id in kept.chain(replacement).chain([addition]) {
            cell.push(id, table);
        }
        cell.value = cell.ids.iter().map(|&id| table.value[id]).sum();
        cell
    }

    fn holds(&self, object: usize) -> bool {
        self.members[object / 64] & (1 << (object % 64)) != 0
    }

    /// Whether some relaxation by an option of this weight and value
    /// could pass the acceptance test in [`Cell::relax`]; `false` only
    /// when no candidate can.
    fn may_relax(&self, weight: u32, value: f64, table: &OptionTable<'_>) -> bool {
        let Some(&min_loss) = self.min_loss.get(weight as usize) else {
            return false;
        };
        let slack = RELAX_BOUND_SLACK * (self.value.abs() + 3.0 * table.max_abs_value);
        value - min_loss > 1e-9 - slack
    }

    /// The relaxation move (paper Figure 5): make room for option `id`
    /// by shrinking one entry to a lower weight of the same object,
    /// keeping the total weight unchanged. Of the entries, in order,
    /// each one whose candidate beats the best so far by more than 1e-9
    /// becomes the new best; the last such entry is applied.
    fn relax(&mut self, id: usize, table: &OptionTable<'_>) {
        let (weight, value) = (table.weight[id], table.value[id]);
        let mut best: Option<(usize, Option<usize>)> = None;
        let mut best_value = self.value;
        for (index, &old) in self.ids.iter().enumerate() {
            let old_weight = table.weight[old];
            if old_weight < weight {
                continue; // cannot free enough space
            }
            // SEARCHOPTION: the same object's option at the reduced
            // weight; weight 0 means full eviction.
            let replacement = (old_weight > weight).then(|| old - weight as usize);
            let replacement_value = replacement.map_or(0.0, |r| table.value[r]);
            let candidate = self.value - table.value[old] + replacement_value + value;
            if candidate > best_value + 1e-9 {
                best_value = candidate;
                best = Some((index, replacement));
            }
        }
        if let Some((index, replacement)) = best {
            *self = Cell::replaced(&self.ids, index, replacement, id, table);
        }
    }

    fn to_config(&self, table: &OptionTable<'_>) -> Config {
        Config {
            options: self
                .ids
                .iter()
                .map(|&id| table.options[id].clone())
                .collect(),
            weight: self.ids.iter().map(|&id| table.weight[id]).sum(),
            value: self.value,
        }
    }
}

/// The outcome of a two-budget solve: one configuration per cache tier.
///
/// The RAM configuration is exactly what [`KnapsackSolver::populate`]
/// would produce on its own (the disk phase never perturbs it), so a
/// deployment with `disk_capacity = 0` stays byte-identical to the
/// single-tier engine.
#[derive(Clone, Debug, Default)]
pub struct TieredConfig {
    ram: Config,
    disk: Config,
}

impl TieredConfig {
    /// The RAM-tier configuration (phase 1).
    pub fn ram(&self) -> &Config {
        &self.ram
    }

    /// The disk-tier configuration (phase 2).
    pub fn disk(&self) -> &Config {
        &self.disk
    }

    /// Total weight across both tiers.
    pub fn total_weight(&self) -> u32 {
        self.ram.weight() + self.disk.weight()
    }

    /// Total planned value across both tiers.
    pub fn total_value(&self) -> f64 {
        self.ram.value() + self.disk.value()
    }
}

impl KnapsackSolver {
    /// Two-budget solve over a RAM tier and a disk tier.
    ///
    /// Phase 1 runs the paper's dynamic program verbatim over
    /// `ram_options` against `ram_capacity`. Phase 2 asks
    /// `disk_options_for` for disk-tier options *conditioned on* the
    /// phase-1 allocation (the remaining chunks and the residual
    /// latencies they leave behind — see
    /// [`crate::options::generate_disk_options`]) and runs the same
    /// dynamic program against `disk_capacity`. The sequential
    /// decomposition is deliberate: RAM strictly dominates disk on
    /// latency, so any chunk worth a RAM slot is worth it regardless of
    /// what lands on disk, and conditioning phase 2 on phase 1 keeps
    /// the two allocations disjoint by construction.
    ///
    /// With `disk_capacity == 0` the closure is never called and the
    /// disk configuration is empty.
    pub fn populate_tiered(
        &self,
        ram_options: &HashMap<ObjectId, ObjectOptions>,
        ram_capacity: u32,
        disk_capacity: u32,
        disk_options_for: impl FnOnce(&Config) -> HashMap<ObjectId, ObjectOptions>,
    ) -> TieredConfig {
        let ram = self.populate(ram_options, ram_capacity);
        let disk = if disk_capacity == 0 {
            Config::empty()
        } else {
            let disk_options = disk_options_for(&ram);
            self.populate(&disk_options, disk_capacity)
        };
        TieredConfig { ram, disk }
    }
}

/// Greedy baseline: sort all options by value density (value per chunk)
/// and take the best-density option per object that still fits. §II-D
/// explains why this can be far from optimal.
pub fn greedy(all_options: &HashMap<ObjectId, ObjectOptions>, capacity: u32) -> Config {
    let mut candidates: Vec<&CachingOption> = all_options
        .values()
        .flat_map(ObjectOptions::iter)
        .filter(|o| o.weight() > 0 && o.value() > 0.0)
        .collect();
    candidates.sort_by(|a, b| {
        let da = a.value() / a.weight() as f64;
        let db = b.value() / b.weight() as f64;
        db.partial_cmp(&da)
            .expect("densities are finite")
            .then(a.object().cmp(&b.object()))
            .then(a.weight().cmp(&b.weight()))
    });
    let mut config = Config::empty();
    for option in candidates {
        if config.contains_object(option.object()) {
            continue;
        }
        if config.weight() + option.weight() <= capacity {
            config.push(option.clone());
        }
    }
    config
}

/// Exhaustive optimum for small instances (tests and ablations): tries
/// every combination of at most one option per object.
///
/// Runtime is `O((k + 1)^objects)`; intended for ≤ ~6 objects.
pub fn exhaustive_optimum(all_options: &HashMap<ObjectId, ObjectOptions>, capacity: u32) -> Config {
    let objects: Vec<&ObjectOptions> = {
        let mut v: Vec<&ObjectOptions> = all_options.values().collect();
        v.sort_by_key(|o| o.object());
        v
    };
    let mut best = Config::empty();
    let mut stack: Vec<(usize, Config)> = vec![(0, Config::empty())];
    while let Some((index, config)) = stack.pop() {
        if config.value() > best.value() {
            best = config.clone();
        }
        if index == objects.len() {
            continue;
        }
        // Skip this object.
        stack.push((index + 1, config.clone()));
        // Or take each of its options.
        for option in objects[index].iter() {
            if config.weight() + option.weight() <= capacity {
                let mut extended = config.clone();
                extended.push(option.clone());
                stack.push((index + 1, extended));
            }
        }
    }
    best
}

/// The solver as the paper's table was first written here: every cell a
/// full [`Config`], a linear search per addition and a map lookup per
/// relaxation entry. [`KnapsackSolver::populate`] must reproduce it move
/// for move; the differential tests compare the two bit for bit.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::BTreeMap;

    impl Config {
        /// Replaces this configuration's option for `option.object()` (if
        /// any) with `option`, returning the new configuration.
        fn with_option(&self, option: CachingOption) -> Config {
            match self
                .options
                .iter()
                .position(|o| o.object() == option.object())
            {
                Some(index) => self.replace_and_add(index, None, option),
                None => {
                    let mut extended = self.clone();
                    extended.push(option);
                    extended
                }
            }
        }

        /// Replaces the option at `index` with `replacement` (possibly
        /// `None` for full eviction) and appends `addition`.
        fn replace_and_add(
            &self,
            index: usize,
            replacement: Option<CachingOption>,
            addition: CachingOption,
        ) -> Config {
            let mut options = Vec::with_capacity(self.options.len() + 1);
            for (i, option) in self.options.iter().enumerate() {
                if i == index {
                    continue;
                }
                options.push(option.clone());
            }
            if let Some(r) = replacement {
                options.push(r);
            }
            options.push(addition);
            let weight = options.iter().map(CachingOption::weight).sum();
            let value = options.iter().map(CachingOption::value).sum();
            Config {
                options,
                weight,
                value,
            }
        }
    }

    /// The relaxation move (paper Figure 5): try to make room for
    /// `option` by shrinking one existing option of the configuration to
    /// a lower weight of the same object, keeping the configuration's
    /// total weight unchanged. Returns the improved configuration if any
    /// replacement raises the value.
    pub(super) fn relax(
        config: &Config,
        option: &CachingOption,
        all_options: &HashMap<ObjectId, ObjectOptions>,
    ) -> Option<Config> {
        if config.contains_object(option.object()) {
            return None;
        }
        let mut best: Option<Config> = None;
        let mut best_value = config.value();
        for (index, old) in config.options().iter().enumerate() {
            if old.weight() < option.weight() {
                continue; // cannot free enough space
            }
            let shrunk_weight = old.weight() - option.weight();
            let replacement = if shrunk_weight == 0 {
                None
            } else {
                match all_options
                    .get(&old.object())
                    .and_then(|opts| opts.by_weight(shrunk_weight))
                {
                    Some(o) => Some(o.clone()),
                    None => continue,
                }
            };
            let replacement_value = replacement.as_ref().map_or(0.0, CachingOption::value);
            let candidate_value = config.value() - old.value() + replacement_value + option.value();
            if candidate_value > best_value + 1e-9 {
                best_value = candidate_value;
                best = Some(config.replace_and_add(index, replacement, option.clone()));
            }
        }
        best
    }

    /// `POPULATE` over a `BTreeMap` of full configurations.
    pub(super) fn populate(
        solver: &KnapsackSolver,
        all_options: &HashMap<ObjectId, ObjectOptions>,
        capacity: u32,
    ) -> Config {
        if capacity == 0 {
            return Config::empty();
        }
        let keys = ordered_keys(all_options);
        if let Some(config) = uncontended(&keys, capacity) {
            return config;
        }
        best(fill(solver, &keys, all_options, capacity))
    }

    /// The final scan: the last configuration of maximal value.
    pub(super) fn best(max_v: BTreeMap<u32, Config>) -> Config {
        max_v
            .into_values()
            .max_by(|a, b| {
                a.value()
                    .partial_cmp(&b.value())
                    .expect("config values are finite")
            })
            .unwrap_or_default()
    }

    /// The dynamic program; returns `MaxV`.
    pub(super) fn fill(
        solver: &KnapsackSolver,
        keys: &[&ObjectOptions],
        all_options: &HashMap<ObjectId, ObjectOptions>,
        capacity: u32,
    ) -> BTreeMap<u32, Config> {
        let mut max_v: BTreeMap<u32, Config> = BTreeMap::new();
        max_v.insert(0, Config::empty());
        let mut keys_since_full: usize = 0;
        let mut seen_full = false;

        for object_options in keys.iter().cycle().take(keys.len() * solver.passes) {
            for option in object_options.iter() {
                if option.weight() > capacity {
                    continue;
                }
                let weights: Vec<u32> = max_v.keys().copied().collect();
                for w in &weights {
                    let config = &max_v[w];
                    if let Some(improved) = relax(config, option, all_options) {
                        debug_assert_eq!(improved.weight(), *w);
                        max_v.insert(*w, improved);
                    }
                }
                let weights: Vec<u32> = max_v.keys().rev().copied().collect();
                for w in weights {
                    let base = &max_v[&w];
                    let (new_weight, new_value) =
                        match base.options.iter().find(|o| o.object() == option.object()) {
                            Some(old) => (
                                w - old.weight() + option.weight(),
                                base.value() - old.value() + option.value(),
                            ),
                            None => (w + option.weight(), base.value() + option.value()),
                        };
                    if new_weight > capacity || new_weight == w {
                        continue;
                    }
                    let should_replace = max_v
                        .get(&new_weight)
                        .is_none_or(|existing| existing.value() < new_value - 1e-12);
                    if should_replace {
                        let candidate = max_v[&w].with_option(option.clone());
                        debug_assert_eq!(candidate.weight(), new_weight);
                        max_v.insert(new_weight, candidate);
                    }
                }
            }

            if let Some(stop_after) = solver.stop_keys_after_full {
                if seen_full {
                    keys_since_full += 1;
                    if keys_since_full >= stop_after {
                        break;
                    }
                } else if max_v.contains_key(&capacity) {
                    seen_full = true;
                }
            }
        }
        max_v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::generate_options;
    use agar_ec::CodingParams;
    use agar_net::RegionId;
    use agar_store::ObjectManifest;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    /// Builds per-object options on the paper's Table I deployment with
    /// the given per-object popularities.
    fn build_options(popularities: &[f64]) -> HashMap<ObjectId, ObjectOptions> {
        let latencies: Vec<Duration> = [80u64, 200, 600, 1400, 3400, 4600]
            .into_iter()
            .map(Duration::from_millis)
            .collect();
        let params = CodingParams::paper_default();
        popularities
            .iter()
            .enumerate()
            .map(|(i, &pop)| {
                let object = ObjectId::new(i as u64);
                let locations = (0..12).map(|c| RegionId::new(c % 6)).collect();
                let manifest = ObjectManifest::new(object, 1_000_000, 1, params, locations);
                (
                    object,
                    generate_options(&manifest, &latencies, Duration::from_millis(40), pop),
                )
            })
            .collect()
    }

    #[test]
    fn zero_capacity_yields_empty_config() {
        let options = build_options(&[10.0, 5.0]);
        let config = KnapsackSolver::new().populate(&options, 0);
        assert_eq!(config.weight(), 0);
        assert_eq!(config.value(), 0.0);
        assert!(config.options().is_empty());
    }

    #[test]
    fn single_object_takes_best_affordable_weight() {
        let options = build_options(&[10.0]);
        // Capacity 9: full replica is affordable and most valuable.
        let config = KnapsackSolver::new().populate(&options, 9);
        assert_eq!(config.options().len(), 1);
        assert_eq!(config.weight(), 9);
        // Capacity 4: weight-3 option is the best (weight 4 adds nothing).
        let config = KnapsackSolver::new().populate(&options, 4);
        assert_eq!(config.value(), 10.0 * 2800.0);
    }

    #[test]
    fn never_exceeds_capacity() {
        let options = build_options(&[10.0, 8.0, 6.0, 4.0, 2.0]);
        for capacity in [0u32, 1, 3, 7, 10, 20, 45, 100] {
            let config = KnapsackSolver::new().populate(&options, capacity);
            assert!(config.weight() <= capacity, "capacity {capacity}");
        }
    }

    #[test]
    fn at_most_one_option_per_object() {
        let options = build_options(&[10.0, 8.0, 6.0]);
        let config = KnapsackSolver::new().populate(&options, 18);
        let mut seen = std::collections::HashSet::new();
        for option in config.options() {
            assert!(seen.insert(option.object()), "duplicate object in config");
        }
    }

    #[test]
    fn dp_matches_exhaustive_optimum_on_small_instances() {
        for (pops, capacity) in [
            (vec![10.0, 8.0], 9u32),
            (vec![10.0, 8.0, 6.0], 12),
            (vec![10.0, 1.0, 1.0, 1.0], 15),
            (vec![5.0, 5.0, 5.0], 7),
            (vec![100.0, 1.0], 10),
        ] {
            let options = build_options(&pops);
            let dp = KnapsackSolver::new().populate(&options, capacity);
            let opt = exhaustive_optimum(&options, capacity);
            assert!(
                (dp.value() - opt.value()).abs() < 1e-6,
                "pops {pops:?} capacity {capacity}: dp {} vs optimum {}",
                dp.value(),
                opt.value()
            );
        }
    }

    #[test]
    fn dp_dominates_greedy() {
        for (pops, capacity) in [
            (vec![10.0, 9.0, 8.0, 2.0], 12u32),
            (vec![10.0, 8.0, 6.0, 4.0, 2.0], 18),
            (vec![3.0, 3.0, 3.0, 3.0], 10),
        ] {
            let options = build_options(&pops);
            let dp = KnapsackSolver::new().populate(&options, capacity);
            let g = greedy(&options, capacity);
            assert!(
                dp.value() >= g.value() - 1e-9,
                "pops {pops:?} capacity {capacity}: dp {} < greedy {}",
                dp.value(),
                g.value()
            );
        }
    }

    #[test]
    fn popular_objects_get_more_chunks() {
        let options = build_options(&[100.0, 1.0]);
        // Room for one full replica plus a small option.
        let config = KnapsackSolver::new().populate(&options, 12);
        let hot = config
            .options()
            .iter()
            .find(|o| o.object() == ObjectId::new(0))
            .expect("hot object cached");
        let cold = config
            .options()
            .iter()
            .find(|o| o.object() == ObjectId::new(1));
        assert!(hot.weight() >= 7, "hot object got {} chunks", hot.weight());
        if let Some(cold) = cold {
            assert!(cold.weight() <= hot.weight());
        }
    }

    #[test]
    fn relax_shrinks_existing_entries_when_profitable() {
        let options = build_options(&[10.0, 9.9]);
        // Capacity 9 fits one full replica; equal-ish popularity means
        // two partial allocations (e.g. 3 + 5 or similar) beat 9 + 0:
        // weight 3 already captures 2800/3360 of the improvement.
        let config = KnapsackSolver::new().populate(&options, 9);
        assert!(config.options().len() == 2, "expected a split allocation");
        // And the split must beat the single full replica.
        assert!(config.value() > 10.0 * 3360.0);
    }

    #[test]
    fn relax_function_direct() {
        let options = build_options(&[10.0, 8.0]);
        let obj0 = ObjectId::new(0);
        let obj1 = ObjectId::new(1);
        // Config holding object 0 at weight 9.
        let mut config = Config::empty();
        config.push(options[&obj0].by_weight(9).unwrap().clone());
        // Relaxing with object 1's weight-3 option shrinks object 0 to 6.
        let incoming = options[&obj1].by_weight(3).unwrap();
        let improved =
            reference::relax(&config, incoming, &options).expect("relaxation profitable");
        assert_eq!(improved.weight(), 9);
        assert!(improved.value() > config.value());
        assert!(improved.contains_object(obj1));
        // Relaxing with an option for an object already present: no-op.
        assert!(
            reference::relax(&improved, options[&obj0].by_weight(1).unwrap(), &options).is_none()
        );
    }

    /// Every solver setting the repository runs.
    fn solver_settings() -> [(&'static str, KnapsackSolver); 4] {
        [
            ("default", KnapsackSolver::new()),
            ("passes(1)", KnapsackSolver::new().with_passes(1)),
            (
                "early_termination(5)",
                KnapsackSolver::new().with_early_termination(5),
            ),
            (
                "early_termination(30).passes(1)",
                KnapsackSolver::new()
                    .with_early_termination(30)
                    .with_passes(1),
            ),
        ]
    }

    #[derive(Clone, Copy, Debug)]
    enum Popularity {
        /// `1000 / rank^s` with a random exponent.
        Zipf,
        /// Three levels on the paper's layout: many objects share
        /// identical option values, so moves tie exactly.
        Coarse,
        /// One-decimal popularities.
        Decimal,
    }

    /// A seeded instance of `objects` objects under shuffled, non-dense
    /// ids (the request monitor tracks a sparse subset of the catalogue).
    fn random_instance(
        rng: &mut StdRng,
        objects: usize,
        popularity: Popularity,
    ) -> HashMap<ObjectId, ObjectOptions> {
        let paper_layout = matches!(popularity, Popularity::Coarse) || rng.random_range(0..2) == 0;
        let latencies: Vec<Duration> = if paper_layout {
            [80u64, 200, 600, 1400, 3400, 4600]
                .into_iter()
                .map(Duration::from_millis)
                .collect()
        } else {
            (0..6)
                .map(|_| Duration::from_millis(20 + rng.random_range(0..5000)))
                .collect()
        };
        let params = match rng.random_range(0..4) {
            0 => CodingParams::new(4, 2).unwrap(),
            1 => CodingParams::new(6, 3).unwrap(),
            _ => CodingParams::paper_default(),
        };
        let mut ids: Vec<u64> = (0..objects as u64 * 3).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.random_range(0..=i));
        }
        let exponent = 0.6 + f64::from(rng.random_range(0..9u32)) / 10.0;
        // Non-integer popularities over magnitudes from 1e-3 to 1e5: sums
        // carry rounding noise both below and above the 1e-12 and 1e-9
        // tie thresholds, so any change to them or to the order of
        // summation changes some configuration.
        let scale = 10f64.powi(rng.random_range(-3..6)) / 3.0;
        ids.into_iter()
            .take(objects)
            .enumerate()
            .map(|(rank, id)| {
                let object = ObjectId::new(id);
                let locations = (0..params.total_chunks())
                    .map(|c| {
                        let region = if paper_layout {
                            c as u16 % 6
                        } else {
                            rng.random_range(0..6)
                        };
                        RegionId::new(region)
                    })
                    .collect();
                let manifest = ObjectManifest::new(object, 1_000_000, 1, params, locations);
                let pop = scale
                    * match popularity {
                        Popularity::Zipf => 1.0 / ((rank + 1) as f64).powf(exponent),
                        Popularity::Coarse => [0.2, 0.5, 0.7][rng.random_range(0..3usize)],
                        Popularity::Decimal => f64::from(rng.random_range(1..=100u32)) / 10.0,
                    };
                (
                    object,
                    generate_options(&manifest, &latencies, Duration::from_millis(40), pop),
                )
            })
            .collect()
    }

    fn assert_same_config(fast: &Config, slow: &Config, context: &str) {
        assert_eq!(fast.options(), slow.options(), "{context}: options");
        assert_eq!(fast.weight(), slow.weight(), "{context}: weight");
        assert_eq!(
            fast.value().to_bits(),
            slow.value().to_bits(),
            "{context}: value {} vs {}",
            fast.value(),
            slow.value()
        );
    }

    /// Asserts the index-based solver replays the reference table
    /// exactly under every solver setting: the answer, and every
    /// intermediate configuration the table ends with, so a move the
    /// answer happens not to depend on still counts.
    fn assert_matches_reference(
        options: &HashMap<ObjectId, ObjectOptions>,
        capacity: u32,
        context: &str,
    ) {
        let keys = ordered_keys(options);
        let dp_runs = capacity > 0 && uncontended(&keys, capacity).is_none();
        let table = OptionTable::new(&keys);
        for (name, solver) in solver_settings() {
            let context = format!("{context} {name}");
            let answer = solver.populate(options, capacity);
            if !dp_runs {
                let expected = reference::populate(&solver, options, capacity);
                assert_same_config(&answer, &expected, &context);
                continue;
            }
            let cells = solver.fill(&table, capacity);
            let max_v = reference::fill(&solver, &keys, options, capacity);
            let weights: Vec<usize> = (0..cells.len()).filter(|&w| cells[w].is_some()).collect();
            let reference_weights: Vec<usize> = max_v.keys().map(|&w| w as usize).collect();
            assert_eq!(weights, reference_weights, "{context}: occupied weights");
            for (w, config) in &max_v {
                let cell = cells[*w as usize].as_ref().expect("occupied");
                assert_same_config(&cell.to_config(&table), config, &format!("{context} w={w}"));
            }
            assert_same_config(&answer, &reference::best(max_v), &context);
        }
    }

    #[test]
    fn dp_replays_the_reference_table_on_seeded_instances() {
        let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
        for case in 0..100u32 {
            let popularity =
                [Popularity::Zipf, Popularity::Coarse, Popularity::Decimal][case as usize % 3];
            // Mostly catalogues that contend for the capacity (with up
            // to 9 chunks an object, the fast path answers once the
            // capacity exceeds ~9 chunks an object), a few large ones at
            // small capacities.
            let (objects, capacity) = if case % 20 == 19 {
                (rng.random_range(40..=320), rng.random_range(0..=60))
            } else {
                let capacity = match case {
                    0 => 0,
                    1 => 200,
                    _ => rng.random_range(0..=200),
                };
                (rng.random_range(1..=8 + capacity as usize / 6), capacity)
            };
            let options = random_instance(&mut rng, objects, popularity);
            let context = format!("case {case} ({popularity:?}, {objects} objects, C={capacity})");
            assert_matches_reference(&options, capacity, &context);
        }
    }

    #[test]
    fn dp_replays_the_reference_table_at_the_bench_shape() {
        // The criterion bench's instance: 300 objects, Zipf-ish values,
        // the paper's 90-chunk cache.
        let pops: Vec<f64> = (0..300).map(|i| 1000.0 / (i + 1) as f64).collect();
        let options = build_options(&pops);
        assert_matches_reference(&options, 90, "bench shape");
        // What the monitor hands the solver: a sparse subset of them
        // (about 137 of the 300).
        let tracked: HashMap<ObjectId, ObjectOptions> = options
            .into_iter()
            .filter(|(object, _)| object.index() * 7919 % 300 < 137)
            .collect();
        assert_matches_reference(&tracked, 90, "tracked subset");
    }

    #[test]
    fn early_termination_still_respects_capacity_and_quality() {
        let options = build_options(&[10.0, 8.0, 6.0, 4.0, 2.0, 1.0]);
        let exact = KnapsackSolver::new().populate(&options, 18);
        let fast = KnapsackSolver::new()
            .with_early_termination(2)
            .populate(&options, 18);
        assert!(fast.weight() <= 18);
        // The heuristic may lose some value but not most of it.
        assert!(
            fast.value() >= 0.8 * exact.value(),
            "fast {} vs exact {}",
            fast.value(),
            exact.value()
        );
    }

    #[test]
    fn greedy_fills_by_density() {
        let options = build_options(&[10.0, 1.0]);
        let config = greedy(&options, 9);
        assert!(config.weight() <= 9);
        assert!(config.value() > 0.0);
        // Highest-density option for the hot object must be present.
        assert!(config.contains_object(ObjectId::new(0)));
    }

    #[test]
    fn exhaustive_respects_capacity() {
        let options = build_options(&[10.0, 8.0]);
        let best = exhaustive_optimum(&options, 5);
        assert!(best.weight() <= 5);
    }

    /// Disk-option generation mirroring the cache manager's wiring: the
    /// RAM allocation per object conditions the second-phase options.
    fn disk_options_after(
        ram: &Config,
        popularities: &[f64],
        disk_read: Duration,
    ) -> HashMap<ObjectId, ObjectOptions> {
        let latencies: Vec<Duration> = [80u64, 200, 600, 1400, 3400, 4600]
            .into_iter()
            .map(Duration::from_millis)
            .collect();
        let params = CodingParams::paper_default();
        popularities
            .iter()
            .enumerate()
            .filter_map(|(i, &pop)| {
                let object = ObjectId::new(i as u64);
                let locations = (0..12).map(|c| RegionId::new(c % 6)).collect();
                let manifest = ObjectManifest::new(object, 1_000_000, 1, params, locations);
                let ram_chunks = ram
                    .options()
                    .iter()
                    .find(|o| o.object() == object)
                    .map_or(&[][..], |o| o.chunks());
                crate::options::generate_disk_options(
                    &manifest,
                    &latencies,
                    Duration::from_millis(40),
                    disk_read,
                    ram_chunks,
                    pop,
                )
                .map(|opts| (object, opts))
            })
            .collect()
    }

    #[test]
    fn tiered_solve_places_chunks_in_both_tiers() {
        let pops = [10.0, 8.0];
        let options = build_options(&pops);
        let solver = KnapsackSolver::new();
        let tiered = solver.populate_tiered(&options, 9, 18, |ram| {
            disk_options_after(ram, &pops, Duration::from_millis(150))
        });
        // Phase 1 is byte-identical to the plain solve.
        let plain = solver.populate(&options, 9);
        assert_eq!(tiered.ram().weight(), plain.weight());
        assert_eq!(tiered.ram().value(), plain.value());
        // The disk tier picks up chunks RAM could not afford.
        assert!(tiered.disk().weight() > 0, "disk tier must place chunks");
        assert!(tiered.disk().weight() <= 18);
        assert!(tiered.total_value() > plain.value());
        // Per object, RAM and disk allocations never overlap.
        for disk_option in tiered.disk().options() {
            let ram_chunks = tiered
                .ram()
                .options()
                .iter()
                .find(|o| o.object() == disk_option.object())
                .map_or(&[][..], |o| o.chunks());
            for chunk in disk_option.chunks() {
                assert!(
                    !ram_chunks.contains(chunk),
                    "chunk {chunk} placed in both tiers"
                );
            }
        }
    }

    #[test]
    fn zero_disk_capacity_skips_the_disk_phase() {
        let options = build_options(&[10.0, 8.0]);
        let tiered = KnapsackSolver::new().populate_tiered(&options, 9, 0, |_| {
            panic!("disk phase must not run with zero capacity")
        });
        assert_eq!(tiered.disk().weight(), 0);
        assert!(tiered.disk().options().is_empty());
        let plain = KnapsackSolver::new().populate(&options, 9);
        assert_eq!(tiered.ram().value(), plain.value());
        assert_eq!(tiered.total_weight(), plain.weight());
        assert_eq!(tiered.total_value(), plain.value());
    }

    #[test]
    fn config_accessors() {
        let config = Config::empty();
        assert_eq!(config.weight(), 0);
        assert_eq!(config.value(), 0.0);
        assert!(config.options().is_empty());
        assert!(!config.contains_object(ObjectId::new(0)));
    }
}
