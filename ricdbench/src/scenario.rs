//! The timestamped 1× scenario the serve and window workloads replay:
//! `DatasetConfig::default()` organic traffic with a diurnal cycle, one
//! flash sale, one burst campaign and one slow-drip campaign. The organic
//! world is the preset's own; the workload seed draws the campaigns' crowd
//! workers and targets and every timestamp.

use crate::{derive_seed, Scale};
use ricd_datagen::prelude::*;

/// The scenario horizon in ticks; both workloads cut it into batches.
pub fn horizon(scale: Scale) -> Tick {
    match scale {
        Scale::Full => 10_000,
        Scale::Toy => 2_000,
    }
}

/// The case-study group shape every campaign plants.
fn group(seed: u64) -> AttackConfig {
    AttackConfig {
        num_groups: 1,
        workers_per_group: 25,
        targets_per_group: 12,
        hot_items_per_group: 2,
        seed,
        ..AttackConfig::default()
    }
}

pub fn config(seed: u64, scale: Scale, batch_interval: Tick) -> ScenarioConfig {
    let h = horizon(scale);
    let dataset = match scale {
        Scale::Full => DatasetConfig::default(),
        Scale::Toy => DatasetConfig::tiny(),
    };
    ScenarioConfig {
        horizon: h,
        batch_interval,
        day_length: h / 4,
        diurnal_amplitude: 0.5,
        dataset,
        flash_sales: vec![FlashSaleSpec {
            start: h * 7 / 10,
            duration: h / 50,
            extra_clicks: 2_000,
        }],
        campaigns: vec![
            // Burst: the whole budget inside a few batches of the second
            // half, the part the serve workload streams live.
            CampaignSpec {
                start: h * 6 / 10,
                ramp: h / 100,
                stop: h * 64 / 100,
                churn_cohorts: 1,
                attack: group(derive_seed(seed, 12)),
            },
            // Slow drip across both halves, with two churning cohorts.
            CampaignSpec {
                start: h / 5,
                ramp: h * 3 / 10,
                stop: h * 9 / 10,
                churn_cohorts: 2,
                attack: group(derive_seed(seed, 13)),
            },
        ],
        seed: derive_seed(seed, 14),
    }
}

pub fn timeline(seed: u64, scale: Scale, batch_interval: Tick) -> Result<Timeline, String> {
    build_timeline(&config(seed, scale, batch_interval))
}
