//! Pruning explorer: watch the correlation miner shrink the joint state
//! space tick by tick, compare the four strategies of Fig 11, and sweep
//! the decoder's frontier beam on top (latency vs macro accuracy per
//! strategy — the two pruning levers compose).
//!
//! Run with: `cargo run --release --example pruning_explorer`

use cace::behavior::session::train_test_split;
use cace::behavior::{cace_grammar, generate_cace_dataset, SessionConfig};
use cace::core::{CaceConfig, CaceEngine, DecoderConfig, Strategy};
use cace::eval::mean_duration_error;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grammar = cace_grammar();
    let sessions = generate_cace_dataset(
        &grammar,
        1,
        4,
        &SessionConfig::standard().with_ticks(200),
        31415,
    );
    let (train, test) = train_test_split(sessions, 0.75);
    let session = &test[0];

    println!(
        "{:<5} {:>10} {:>16} {:>16} {:>14} {:>10}",
        "strat", "accuracy", "states explored", "transition ops", "duration err", "wall (s)"
    );
    let mut ops = Vec::new();
    for strategy in Strategy::ALL {
        let engine = CaceEngine::train(&train, &CaceConfig::default().with_strategy(strategy))?;
        let rec = engine.recognize(session)?;
        let dur: f64 = (0..2)
            .map(|u| mean_duration_error(&session.labels_of(u), &rec.macros[u], 5))
            .sum::<f64>()
            / 2.0;
        println!(
            "{:<5} {:>9.1}% {:>16} {:>16} {:>13.1}% {:>10.4}",
            strategy.label(),
            100.0 * rec.accuracy(session),
            rec.states_explored,
            rec.transition_ops,
            100.0 * dur,
            rec.wall_seconds
        );
        ops.push((strategy, rec.transition_ops));
    }

    let ncs = ops
        .iter()
        .find(|(s, _)| *s == Strategy::NaiveConstraint)
        .unwrap()
        .1;
    let c2 = ops
        .iter()
        .find(|(s, _)| *s == Strategy::CorrelationConstraint)
        .unwrap()
        .1;
    println!(
        "\nstate-space pruning reduced the coupled model's transition work by \
         {:.1}× (paper: 16×)",
        ncs as f64 / c2.max(1) as f64
    );

    // Second lever: beam-prune the decoder *frontier* on top of the mined
    // candidate pruning. `TopK(k)` keeps the k best trellis states per
    // tick; `k >=` the strategy's frontier bound never prunes (== exact).
    println!(
        "\n{:<5} {:>12} {:>10} {:>8} {:>16} {:>10}",
        "strat", "beam", "accuracy", "Δacc", "transition ops", "wall (s)"
    );
    for strategy in Strategy::ALL {
        let engine = CaceEngine::train(&train, &CaceConfig::default().with_strategy(strategy))?;
        let bound = engine.frontier_bound();
        let exact = engine.recognize(session)?;
        let exact_acc = exact.accuracy(session);
        println!(
            "{:<5} {:>12} {:>9.1}% {:>8} {:>16} {:>10.4}",
            strategy.label(),
            "exact",
            100.0 * exact_acc,
            "-",
            exact.transition_ops,
            exact.wall_seconds
        );
        for divisor in [8usize, 32, 128] {
            let k = (bound / divisor).max(1);
            let beamed = engine.with_decoder(DecoderConfig::top_k(k));
            let rec = beamed.recognize(session)?;
            let acc = rec.accuracy(session);
            println!(
                "{:<5} {:>12} {:>9.1}% {:>+7.1}pp {:>16} {:>10.4}",
                strategy.label(),
                format!("TopK({k})"),
                100.0 * acc,
                100.0 * (acc - exact_acc),
                rec.transition_ops,
                rec.wall_seconds
            );
        }
    }
    println!(
        "\n(frontier beams compose with the rule pruning above; \
         `cargo bench -p cace-bench --bench kernels` has the per-tick \
         latency story)"
    );
    Ok(())
}
