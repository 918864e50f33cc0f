//! The three fleet workloads and their seeded inputs.
//!
//! Every home gets its own simulated session, seeded from the run seed and
//! the home's index; no session is ever shared between homes or replayed.
//! The served model is trained on a fixed corpus (a deployed model does not
//! change with the traffic), so the run seed varies only the fleet.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cace_behavior::session::train_test_split;
use cace_behavior::{
    cace_grammar, generate_cace_dataset, generate_casas_dataset, CasasConfig, Session,
    SessionConfig,
};

/// Which grammar (and so which served model) a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The serving-sized tiny C2 model on the CACE grammar.
    TinyCace,
    /// The paper-scale fig. 9 C2 model on the CASAS grammar.
    Casas,
}

/// One benchmark workload: a fleet shape over one input family.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub family: Family,
    /// Distinct homes in the fleet, ids `0..homes`.
    pub homes: usize,
    /// Session ticks per home, warm-up rounds included. Each epoch is one
    /// fleet of `homes` homes streaming sessions of this length.
    pub ticks: usize,
    /// Live-state cap per shard (`None` = every home stays live).
    pub live_cap: Option<usize>,
    /// Homes checked against a dedicated stream (`None` = all of them).
    pub reference_homes: Option<usize>,
    /// Homes driven through the single-thread layer probes (trace run).
    pub probe_homes: usize,
}

/// Rounds pushed before the measured rounds start: every home's first
/// pushes build its decoder window and per-stream scratch.
pub const WARMUP_ROUNDS: usize = 8;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fleet_tiny_live",
        family: Family::TinyCace,
        homes: 256,
        ticks: 128,
        live_cap: None,
        reference_homes: Some(32),
        probe_homes: 12,
    },
    Workload {
        name: "fleet_tiny_parked",
        family: Family::TinyCace,
        homes: 256,
        ticks: 128,
        // 256 homes over 8 shards is 32 a shard; 4 live is 1/8 of them.
        live_cap: Some(4),
        reference_homes: Some(32),
        probe_homes: 12,
    },
    Workload {
        name: "fleet_casas_live",
        family: Family::Casas,
        homes: 96,
        ticks: 128,
        live_cap: None,
        reference_homes: None,
        probe_homes: 4,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }
}

/// Seed of the served model's training corpus, per family. The tiny corpus
/// is the workspace's `tiny_corpus(6, 60, 4117)` fixture; the CASAS corpus
/// is the fig. 9 C2 workload of the kernel benches.
const TINY_TRAIN_SEED: u64 = 4117;
const CASAS_TRAIN_SEED: u64 = 9002;

/// SplitMix64 finalizer, used to derive independent per-home seeds.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn simulate_home(family: Family, ticks: usize, seed: u64, epoch: usize, home: usize) -> Session {
    let home_seed = mix(mix(seed, epoch as u64), home as u64);
    let mut sessions = match family {
        Family::TinyCace => {
            let grammar = cace_grammar();
            let config = SessionConfig {
                start_activity: (mix(home_seed, 1) % grammar.len() as u64) as usize,
                ..SessionConfig::tiny().with_ticks(ticks)
            };
            generate_cace_dataset(&grammar, 1, 1, &config, home_seed)
        }
        Family::Casas => generate_casas_dataset(
            &CasasConfig {
                pairs: 1,
                sessions_per_pair: 1,
                ticks,
                ..CasasConfig::default()
            },
            home_seed,
        ),
    };
    let mut session = sessions.pop().expect("one home, one session");
    session.home_id = home as u32 + 1;
    session
}

/// The fixed training corpus of the served model.
pub fn training_corpus(family: Family) -> Vec<Session> {
    match family {
        // One 60-tick tiny session starting in each activity, so the served
        // model has seen every activity a fleet home can be in.
        Family::TinyCace => {
            let grammar = cace_grammar();
            (0..grammar.len())
                .flat_map(|activity| {
                    let config = SessionConfig {
                        start_activity: activity,
                        ..SessionConfig::tiny().with_ticks(60)
                    };
                    generate_cace_dataset(
                        &grammar,
                        1,
                        1,
                        &config,
                        mix(TINY_TRAIN_SEED, activity as u64),
                    )
                })
                .collect()
        }
        Family::Casas => {
            let (train, _) = train_test_split(
                generate_casas_dataset(
                    &CasasConfig {
                        pairs: 4,
                        sessions_per_pair: 2,
                        ticks: 200,
                        ..CasasConfig::default()
                    },
                    CASAS_TRAIN_SEED,
                ),
                0.8,
            );
            train
        }
    }
}

/// Generates one epoch's fleet — one session per home, indexed by home id —
/// on `threads` workers. The result depends only on the workload, `seed`
/// and `epoch`, never on the thread count.
pub fn generate(workload: &Workload, seed: u64, epoch: usize, threads: usize) -> Vec<Session> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Session>>> = Mutex::new(vec![None; workload.homes]);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let home = next.fetch_add(1, Ordering::Relaxed);
                if home >= workload.homes {
                    break;
                }
                let session = simulate_home(workload.family, workload.ticks, seed, epoch, home);
                slots.lock().expect("no generator thread panics")[home] = Some(session);
            });
        }
    });
    slots
        .into_inner()
        .expect("no generator thread panics")
        .into_iter()
        .map(|s| s.expect("every home generated"))
        .collect()
}

/// Word-wise FNV-style hash of everything the recognizer observes and the
/// labels it is scored against, so a different seed gives a different
/// fingerprint and the same seed the same one on every host.
pub fn fingerprint(sessions: &[Session]) -> u64 {
    let mut h = Hasher::new();
    for s in sessions {
        h.word(u64::from(s.home_id));
        h.word(s.ticks.len() as u64);
        for tick in &s.ticks {
            h.word(tick.labels[0] as u64);
            h.word(tick.labels[1] as u64);
            let o = &tick.observed;
            for &b in o.room_motion.iter().chain(o.objects.iter()) {
                h.word(u64::from(b));
            }
            if let Some(sub) = &o.subloc_motion {
                for &b in sub {
                    h.word(u64::from(b) | 2);
                }
            }
            if let Some(items) = &o.items {
                for &b in items {
                    h.word(u64::from(b) | 4);
                }
            }
            for user in &o.per_user {
                for frame in [&user.phone, &user.tag] {
                    match frame {
                        None => h.word(u64::MAX),
                        Some(samples) => {
                            h.word(samples.len() as u64);
                            for smp in samples {
                                for v in [smp.accel, smp.gyro, smp.mag] {
                                    h.word(v.x.to_bits());
                                    h.word(v.y.to_bits());
                                    h.word(v.z.to_bits());
                                }
                            }
                        }
                    }
                }
                if let Some(b) = &user.beacon {
                    h.word(b.position.0.to_bits());
                    h.word(b.position.1.to_bits());
                    h.word(b.nearest as u64);
                    h.word(u64::from(b.in_home));
                    h.word(b.residual.to_bits());
                }
            }
        }
    }
    h.finish()
}

/// FNV-1a over 64-bit words (one multiply per word, not per byte).
pub struct Hasher(u64);

impl Hasher {
    pub fn new() -> Self {
        Hasher(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self.word(bytes.len() as u64);
    }

    pub fn finish(&self) -> u64 {
        mix(self.0, 0)
    }
}

/// A seeded sample of `k` distinct home indices out of `n`, ascending.
pub fn sample_homes(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut state = mix(seed, 0x5a4d_504c_4553);
    for i in (1..n).rev() {
        state = mix(state, i as u64);
        idx.swap(i, (state % (i as u64 + 1)) as usize);
    }
    idx.truncate(k.min(n));
    idx.sort_unstable();
    idx
}
