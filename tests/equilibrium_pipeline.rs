//! Cross-crate integration: the full selfish-user pipeline — closed-form
//! equilibria, learning dynamics, mechanisms — agreeing with one another.

use greednet::core::utility::UtilityExt;
use greednet::core::{pareto, relaxation};
use greednet::learning::elimination::{self, EliminationConfig};
use greednet::learning::hill::{climb, ExactEnv, HillConfig};
use greednet::learning::newton;
use greednet::mechanisms::revelation::DirectMechanism;
use greednet::prelude::*;

fn heterogeneous_users() -> Vec<BoxedUtility> {
    vec![
        LogUtility::new(0.35, 1.0).boxed(),
        LogUtility::new(0.7, 1.3).boxed(),
        PowerUtility::new(0.5, 0.9).boxed(),
    ]
}

#[test]
fn all_roads_lead_to_the_fair_share_nash() -> Result<(), greednet::Error> {
    // Best-response iteration, Newton dynamics, hill climbing, candidate
    // elimination and the revelation mechanism must all agree on the same
    // unique Fair Share equilibrium. The stages cross four crate
    // boundaries (core, learning x2, mechanisms); the facade
    // `greednet::Error` lets `?` thread through all of them.
    let users = heterogeneous_users();
    let game = Game::new(FairShare::new(), users.clone())?;
    let nash = game.solve_nash(&NashOptions::default())?;
    assert!(nash.converged);

    // 1. Global deviation audit.
    let check = game.verify_nash(&nash.rates, 512)?;
    assert!(check.is_nash(1e-6), "deviation gain {}", check.max_gain);

    // 2. Newton dynamics from a perturbed start.
    let start: Vec<f64> = nash.rates.iter().map(|&x| x * 1.05).collect();
    let newton_traj = newton::run(&game, &start, 10)?;
    for (a, b) in newton_traj.final_rates().iter().zip(&nash.rates) {
        assert!((a - b).abs() < 1e-6, "newton {a} vs nash {b}");
    }

    // 3. Hill climbing against exact observations.
    let mut env = ExactEnv::new(Box::new(FairShare::new()), 3);
    let hill = climb(
        &users,
        &mut env,
        &[0.05, 0.05, 0.05],
        &HillConfig {
            rounds: 250,
            ..Default::default()
        },
    )?;
    assert!(
        hill.distance_to(&nash.rates) < 5e-3,
        "hill {:?}",
        hill.final_rates
    );

    // 4. Candidate elimination (generalized hill climbing).
    let elim = elimination::run(
        &FairShare::new(),
        &users,
        &EliminationConfig {
            grid: 81,
            lo: 0.004,
            hi: 0.5,
            max_rounds: 120,
        },
    )?;
    let step = (0.5 - 0.004) / 80.0;
    for (mid, r) in elim.midpoints().iter().zip(&nash.rates) {
        assert!(
            (mid - r).abs() < 4.0 * step,
            "elimination mid {mid} vs nash {r}"
        );
    }

    // 5. The revelation mechanism assigns exactly this equilibrium.
    let mech = DirectMechanism::new(Box::new(FairShare::new()));
    let assigned = mech.assign(&users)?;
    for (a, b) in assigned.rates.iter().zip(&nash.rates) {
        assert!((a - b).abs() < 1e-6);
    }
    Ok(())
}

#[test]
fn facade_error_carries_layer_detail() {
    // Every layer's error funnels into greednet::Error with the source
    // chain intact.
    fn saturated_sim() -> Result<(), greednet::Error> {
        use greednet::des::{Engine, EngineConfig};
        Engine::new(EngineConfig::open_loop(&[0.7, 0.8], 100_000.0, 0))?;
        Ok(())
    }
    let err = saturated_sim().unwrap_err();
    assert!(matches!(err, greednet::Error::Des(_)), "{err:?}");
    assert!(err.to_string().contains("des:"), "{err}");
    assert!(std::error::Error::source(&err).is_some());

    fn empty_game() -> Result<(), greednet::Error> {
        let game = Game::new(FairShare::new(), Vec::new())?;
        let _ = game;
        Ok(())
    }
    assert!(matches!(
        empty_game().unwrap_err(),
        greednet::Error::Core(_)
    ));
}

#[test]
fn fifo_pipeline_shows_all_pathologies_at_once() {
    let gamma = 0.2;
    let users: Vec<BoxedUtility> = (0..4)
        .map(|_| LinearUtility::new(1.0, gamma).boxed())
        .collect();
    let game = Game::new(Proportional::new(), users).unwrap();
    let nash = game.solve_nash(&NashOptions::default()).unwrap();
    assert!(nash.converged);

    // Not Pareto (Theorem 2) and dominated by collective backoff.
    assert!(!pareto::is_pareto_fdc(&game, &nash.rates, 1e-3));
    assert!(pareto::scaling_improvement(&game, &nash.rates).is_some());

    // Unstable Newton dynamics (Theorem 7 counterpart).
    let rho = relaxation::spectral_radius(&game, &nash.rates).unwrap();
    assert!(rho > 1.0, "spectral radius {rho}");
    let start: Vec<f64> = nash.rates.iter().map(|&x| x + 1e-4).collect();
    let traj = newton::run(&game, &start, 6).unwrap();
    assert!(traj.diverged(3.0));
}

#[test]
fn ordinal_invariance_end_to_end() {
    // Transforming utilities monotonically changes nothing observable.
    use greednet::core::utility::{MonotoneTransform, TransformKind};
    let users = heterogeneous_users();
    let transformed: Vec<BoxedUtility> = users
        .iter()
        .map(|u| MonotoneTransform::new(u.clone(), TransformKind::NegExp { k: 0.7 }).boxed())
        .collect();
    let g1 = Game::new(FairShare::new(), users).unwrap();
    let g2 = Game::new(FairShare::new(), transformed).unwrap();
    let n1 = g1.solve_nash(&NashOptions::default()).unwrap();
    let n2 = g2.solve_nash(&NashOptions::default()).unwrap();
    for (a, b) in n1.rates.iter().zip(&n2.rates) {
        assert!((a - b).abs() < 1e-5, "{:?} vs {:?}", n1.rates, n2.rates);
    }
    // Envy-freeness is ordinal too.
    assert!(g2.max_envy(&n2.rates).unwrap() <= 1e-6);
}
