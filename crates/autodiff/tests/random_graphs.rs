//! Property-based gradient checks over randomly shaped compositions.

use pnc_autodiff::gradcheck::check_gradients;
use pnc_linalg::Matrix;
use proptest::prelude::*;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0..2.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("sized"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mlp_like_composition_has_correct_gradients(
        (x, w1, w2) in (1usize..4, 1usize..4, 1usize..4, 1usize..4).prop_flat_map(|(b, i, h, o)| {
            (arb_matrix(b, i), arb_matrix(i, h), arb_matrix(h, o))
        })
    ) {
        let inputs = [x, w1, w2];
        let report = check_gradients(&inputs, 1e-6, |g, vars| {
            let h = g.matmul(vars[0], vars[1]).unwrap();
            let a = g.tanh(h);
            let y = g.matmul(a, vars[2]).unwrap();
            let s = g.sigmoid(y);
            g.mean(s)
        });
        prop_assert!(report.max_abs_error < 1e-6, "{:?}", report);
    }

    #[test]
    fn crossbar_like_normalization_has_correct_gradients(
        theta in arb_matrix(3, 2),
        x in arb_matrix(2, 3),
    ) {
        // Avoid division blow-ups: shift |θ| away from zero.
        let theta = theta.map(|v| v + 3.0 * v.signum() + if v == 0.0 { 3.0 } else { 0.0 });
        let inputs = [theta, x];
        let report = check_gradients(&inputs, 1e-6, |g, vars| {
            let absw = g.abs(vars[0]);
            let total = g.sum_rows(absw);          // 1×out
            let w = g.div(absw, total).unwrap();   // row-broadcast divide
            let z = g.matmul(vars[1], w).unwrap(); // batch × out
            let a = g.tanh(z);
            g.mean(a)
        });
        prop_assert!(report.max_abs_error < 1e-6, "{:?}", report);
    }

    #[test]
    fn slice_concat_pipeline_has_correct_gradients(v in arb_matrix(1, 6)) {
        let inputs = [v];
        let report = check_gradients(&inputs, 1e-6, |g, vars| {
            let a = g.slice_cols(vars[0], 0, 3).unwrap();
            let b = g.slice_cols(vars[0], 3, 3).unwrap();
            let prod = g.mul(a, b).unwrap();
            let cat = g.concat_cols(&[prod, a]).unwrap();
            let t = g.tanh(cat);
            g.sum(t)
        });
        prop_assert!(report.max_abs_error < 1e-5, "{:?}", report);
    }
}
