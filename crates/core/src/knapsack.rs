//! The cache-configuration Knapsack solver (the paper's §IV-B).
//!
//! Choosing which erasure-coded chunks to cache is a knapsack with one
//! extra rule: at most one caching option per object. Weights are chunk
//! counts and values are popularity-weighted latency improvements. That
//! is the *multiple-choice knapsack problem*, with one class per object,
//! and it has an exact pseudo-polynomial dynamic program (Kellerer,
//! Pferschy and Pisinger, *Knapsack Problems*, 2004, ch. 11):
//!
//! ```text
//! best_g[c] = max(best_{g-1}[c], max over options o of g with w_o <= c
//!                                of best_{g-1}[c - w_o] + v_o)
//! ```
//!
//! [`KnapsackSolver::populate`] runs it in `O(C · Σ options)` time over
//! one value row of `C + 1` budgets, and records each object's choice
//! per budget in one byte so the configuration can be read back from
//! `C`. The paper's
//! `POPULATE` with its `RELAX` move (Figures 4 and 5) is a heuristic for
//! the same problem; the tests keep it as a reference and check that the
//! exact solver never scores below it.
//!
//! A greedy value-density solver and an exhaustive optimum are included
//! as baselines: §II-D argues greedy can err by as much as 50%, and the
//! tests check the exact solver against the exhaustive optimum on small
//! instances.

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

/// The exact solver for the cache configuration. It has no settings:
/// the answer is the optimum, so there is nothing to trade for speed.
#[derive(Clone, Copy, Debug, Default)]
pub struct KnapsackSolver;

impl KnapsackSolver {
    /// The solver.
    pub fn new() -> Self {
        KnapsackSolver
    }

    /// Computes a configuration of maximal value among those of weight
    /// ≤ `capacity` chunks.
    ///
    /// An option is skipped when its weight is 0 or above `capacity`, or
    /// its value is not positive. Between configurations of equal value
    /// (to 1e-12 of the values in play) the choice is fixed, whatever
    /// the map's iteration order: the heavier option of an object wins,
    /// a free upgrade to more cached chunks, and an object the paper's
    /// `POPULATE` visits earlier (higher best value, then lower id) wins
    /// over one it visits later.
    pub fn populate(
        &self,
        all_options: &HashMap<ObjectId, ObjectOptions>,
        capacity: u32,
    ) -> Config {
        let budgets = capacity as usize + 1;
        // The reverse of `POPULATE`'s order: the DP hands ties to the
        // objects it visits last.
        let mut keyed: Vec<(f64, &ObjectOptions)> =
            all_options.values().map(|o| (o.best_value(), o)).collect();
        keyed.sort_unstable_by(|(a, x), (b, y)| a.total_cmp(b).then(y.object().cmp(&x.object())));
        let objects: Vec<&ObjectOptions> = keyed.into_iter().map(|(_, o)| o).collect();
        // best[c]: the most value the objects so far reach in ≤ c chunks;
        // before: the same row without the current object.
        let mut best = vec![0.0f64; budgets];
        let mut before = vec![0.0f64; budgets];
        // choices[g * budgets + c]: 1 + the position among `usable` of
        // the option object g takes at budget c, or 0 for none.
        let mut choices = vec![0u8; objects.len() * budgets];
        for (options, row) in objects.iter().zip(choices.chunks_exact_mut(budgets)) {
            before.copy_from_slice(&best);
            // Candidates within `tie` count as equal: sums of the same
            // options in another order differ by a few ulps. Options run
            // weight-ascending and the last of equal candidates wins, so
            // a tie goes to the heavier option, and to this object over
            // the ones visited before it. An object has at most k ≤ 254
            // options, so every pick fits in a byte.
            let tie = TIE * (best[budgets - 1] + options.best_value());
            for (pick, option) in (1..=u8::MAX).zip(usable(options, capacity)) {
                let (weight, value) = (option.weight() as usize, option.value());
                let targets = best[weight..].iter_mut().zip(&mut row[weight..]);
                for ((best, choice), &base) in targets.zip(&before) {
                    if base + value >= *best - tie {
                        *best = base + value;
                        *choice = pick;
                    }
                }
            }
        }
        // Read the choices back from the full budget, last object first.
        let mut picked = Vec::new();
        let mut c = capacity as usize;
        for (options, row) in objects.iter().zip(choices.chunks_exact(budgets)).rev() {
            if let Some(option) = row[c]
                .checked_sub(1)
                .and_then(|position| usable(options, capacity).nth(usize::from(position)))
            {
                c -= option.weight() as usize;
                picked.push(option);
            }
        }
        let mut config = Config::empty();
        for option in picked {
            config.push(option.clone());
        }
        config
    }
}

/// Width of a value tie, relative to the largest value in play.
const TIE: f64 = 1e-12;

/// The options of one object the solver may pick, weight ascending.
fn usable(options: &ObjectOptions, capacity: u32) -> impl Iterator<Item = &CachingOption> {
    options
        .iter()
        .filter(move |o| o.weight() > 0 && o.weight() <= capacity && o.value() > 0.0)
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
    /// Phase 1 solves `ram_options` against `ram_capacity`. Phase 2
    /// asks `disk_options_for` for disk-tier options *conditioned on*
    /// the phase-1 allocation (the remaining chunks and the residual
    /// latencies they leave behind — see
    /// [`crate::options::generate_disk_options`]) and solves them
    /// against `disk_capacity`. The sequential decomposition is
    /// deliberate: RAM strictly dominates disk on latency, so any chunk
    /// worth a RAM slot is worth it regardless of what lands on disk,
    /// and conditioning phase 2 on phase 1 keeps the two allocations
    /// disjoint by construction.
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
    let mut objects: Vec<&ObjectOptions> = all_options.values().collect();
    objects.sort_by_key(|o| o.object());
    let mut best = Config::empty();
    search(&objects, capacity, &mut Vec::new(), &mut best);
    best
}

/// Depth-first search of [`exhaustive_optimum`]: leave the first object
/// out, or take one of its options that fits in `room`, then recurse.
fn search<'a>(
    objects: &[&'a ObjectOptions],
    room: u32,
    chosen: &mut Vec<&'a CachingOption>,
    best: &mut Config,
) {
    let Some((first, rest)) = objects.split_first() else {
        if chosen.iter().map(|o| o.value()).sum::<f64>() > best.value() {
            *best = Config::empty();
            chosen.iter().for_each(|&option| best.push(option.clone()));
        }
        return;
    };
    search(rest, room, chosen, best);
    for option in first.iter().filter(|o| o.weight() <= room) {
        chosen.push(option);
        search(rest, room - option.weight(), chosen, best);
        chosen.pop();
    }
}

/// The paper's `POPULATE` (Figure 4) with its `RELAX` move (Figure 5),
/// as this repository ran it before the exact solver: objects in
/// decreasing best-value order, two sweeps over the option list, every
/// `MaxV` cell a full [`Config`]. Kept as the paper-fidelity reference
/// the exact solver is compared against.
///
/// Deviations from the pseudocode: weight keys are snapshotted per
/// option (the pseudocode mutates `MaxV` while iterating it), an option
/// for an object the configuration already caches replaces that entry
/// (the pseudocode would double-count it), and the answer is the best
/// configuration of weight ≤ capacity rather than exactly capacity.
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
    fn relax(
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
        all_options: &HashMap<ObjectId, ObjectOptions>,
        capacity: u32,
    ) -> Config {
        if capacity == 0 {
            return Config::empty();
        }
        // ORDERBY in the paper: decreasing best value, ties by object id.
        let mut keys: Vec<&ObjectOptions> = all_options.values().collect();
        keys.sort_by(|a, b| {
            b.best_value()
                .partial_cmp(&a.best_value())
                .expect("option values are finite")
                .then(a.object().cmp(&b.object()))
        });
        let mut max_v: BTreeMap<u32, Config> = BTreeMap::new();
        max_v.insert(0, Config::empty());
        for object_options in keys.iter().cycle().take(keys.len() * 2) {
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
        }
        // The final scan: the last configuration of maximal value.
        max_v
            .into_values()
            .max_by(|a, b| {
                a.value()
                    .partial_cmp(&b.value())
                    .expect("config values are finite")
            })
            .unwrap_or_default()
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
    fn value_ties_go_to_the_heavier_option() {
        let options = build_options(&[10.0]);
        let object = &options[&ObjectId::new(0)];
        // On the paper's layout the second chunk of a region adds
        // nothing until the whole region leaves the read path, so each
        // even weight ties the odd weight below it.
        for (capacity, lighter) in [(2u32, 1u32), (4, 3), (6, 5), (8, 7)] {
            let (light, heavy) = (
                object.by_weight(lighter).expect("weight exists"),
                object.by_weight(capacity).expect("weight exists"),
            );
            assert_eq!(light.value(), heavy.value(), "weights {lighter}/{capacity}");
            let config = KnapsackSolver::new().populate(&options, capacity);
            assert_eq!(
                config.options(),
                std::slice::from_ref(heavy),
                "capacity {capacity}"
            );
        }
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

    #[derive(Clone, Copy, Debug)]
    enum Popularity {
        /// `1000 / rank^s` with a random exponent.
        Zipf,
        /// Three levels on the paper's layout: many objects share
        /// identical option values, so choices tie exactly.
        Coarse,
        /// One-decimal popularities.
        Decimal,
    }

    /// A seeded instance of `objects` objects under shuffled, non-dense
    /// ids (the request monitor tracks a sparse subset of the catalogue),
    /// coded RS(4,2), RS(6,3) or RS(9,3) on the paper's region layout or
    /// a random one.
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
        // Non-integer popularities over magnitudes from 1e-3 to 1e5, so
        // sums carry rounding noise.
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

    fn popularity_for(case: u32) -> Popularity {
        [Popularity::Zipf, Popularity::Coarse, Popularity::Decimal][case as usize % 3]
    }

    /// Asserts a solver's answer is a valid configuration: within
    /// capacity, one option per object, and its weight and value are the
    /// sums of its options.
    fn assert_valid(config: &Config, capacity: u32, context: &str) {
        assert!(config.weight() <= capacity, "{context}: over capacity");
        let mut seen = std::collections::HashSet::new();
        for option in config.options() {
            assert!(seen.insert(option.object()), "{context}: object twice");
        }
        let weight: u32 = config.options().iter().map(CachingOption::weight).sum();
        assert_eq!(weight, config.weight(), "{context}: weight");
    }

    /// Whether `value` is within 1e-9 (relative) of `optimum`.
    fn matches(value: f64, optimum: f64) -> bool {
        (value - optimum).abs() <= 1e-9 * optimum.abs().max(1.0)
    }

    #[test]
    fn exact_dp_matches_exhaustive_optimum_on_seeded_instances() {
        let mut rng = StdRng::seed_from_u64(0xE8AC_7001);
        for case in 0..600u32 {
            let popularity = popularity_for(case);
            let objects = rng.random_range(1..=6);
            let options = random_instance(&mut rng, objects, popularity);
            let heaviest: u32 = options
                .values()
                .map(|o| o.iter().map(CachingOption::weight).max().unwrap_or(0))
                .sum();
            let capacity = rng.random_range(0..=heaviest + 2);
            let context = format!("case {case} ({popularity:?}, {objects} objects, C={capacity})");
            let dp = KnapsackSolver::new().populate(&options, capacity);
            let optimum = exhaustive_optimum(&options, capacity);
            assert_valid(&dp, capacity, &context);
            assert!(
                matches(dp.value(), optimum.value()),
                "{context}: dp {} vs optimum {}",
                dp.value(),
                optimum.value()
            );
        }
    }

    /// Returns the exact solver's relative gain over the paper's
    /// `POPULATE` on `options`, after checking the exact one is no worse.
    fn gain_over_paper(
        options: &HashMap<ObjectId, ObjectOptions>,
        capacity: u32,
        context: &str,
    ) -> f64 {
        let exact = KnapsackSolver::new().populate(options, capacity);
        let paper = reference::populate(options, capacity);
        assert_valid(&exact, capacity, context);
        assert_valid(&paper, capacity, context);
        assert!(
            exact.value() >= paper.value() || matches(exact.value(), paper.value()),
            "{context}: exact {} below the paper DP {}",
            exact.value(),
            paper.value()
        );
        if matches(exact.value(), paper.value()) {
            0.0
        } else {
            (exact.value() - paper.value()) / exact.value()
        }
    }

    #[test]
    fn exact_dp_is_never_below_the_paper_dp() {
        let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
        let mut gaps: Vec<f64> = Vec::new();
        for case in 0..1000u32 {
            let popularity = popularity_for(case);
            let objects = rng.random_range(2..=60);
            let capacity = rng.random_range(1..=120);
            let options = random_instance(&mut rng, objects, popularity);
            let context = format!("case {case} ({popularity:?}, {objects} objects, C={capacity})");
            let gain = gain_over_paper(&options, capacity, &context);
            if gain > 0.0 {
                gaps.push(gain);
            }
        }
        // The criterion bench's instance: 300 objects, Zipf-ish values,
        // the paper's 90-chunk cache; then what the monitor hands the
        // solver, a sparse subset of them (about 137 of the 300).
        let pops: Vec<f64> = (0..300).map(|i| 1000.0 / (i + 1) as f64).collect();
        let options = build_options(&pops);
        gain_over_paper(&options, 90, "bench shape");
        let tracked: HashMap<ObjectId, ObjectOptions> = options
            .into_iter()
            .filter(|(object, _)| object.index() * 7919 % 300 < 137)
            .collect();
        gain_over_paper(&tracked, 90, "tracked subset");
        let max = gaps.iter().copied().fold(0.0, f64::max);
        let mean = gaps.iter().sum::<f64>() / gaps.len().max(1) as f64;
        println!(
            "paper DP below the exact optimum on {} of 1000 instances: max {:.3}%, mean {:.3}% of those",
            gaps.len(),
            max * 100.0,
            mean * 100.0
        );
    }

    #[test]
    fn map_order_does_not_change_the_config() {
        let mut rng = StdRng::seed_from_u64(0x0DE7);
        for case in 0..50u32 {
            let objects = rng.random_range(2..=40);
            let capacity = rng.random_range(1..=90);
            let options = random_instance(&mut rng, objects, popularity_for(case));
            let expected = KnapsackSolver::new().populate(&options, capacity);
            // The same entries inserted in a shuffled order into a map
            // with its own hash seed.
            let mut entries: Vec<(ObjectId, ObjectOptions)> = options.into_iter().collect();
            for i in (1..entries.len()).rev() {
                entries.swap(i, rng.random_range(0..=i));
            }
            let shuffled: HashMap<ObjectId, ObjectOptions> = entries.into_iter().collect();
            let config = KnapsackSolver::new().populate(&shuffled, capacity);
            assert_eq!(config.options(), expected.options(), "case {case}");
            assert_eq!(config.weight(), expected.weight(), "case {case}");
            assert_eq!(
                config.value().to_bits(),
                expected.value().to_bits(),
                "case {case}"
            );
        }
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
