//! Property: the flat ACF slab computes exactly what a per-component
//! fold computes. Over random non-dyadic rows on a mixed 1-D / 2-D / 3-D
//! layout, `add_row`, `merge` and `unmerge` leave every image's LS and SS
//! equal, bit for bit, to a naive fold written here; and every image view
//! answers its distances and diameters bit for bit like an owned
//! [`Cf`] built from the same moments.

use dar_core::{Acf, AcfLayout, Cf, CfRef};
use proptest::prelude::*;

const DIMS: [usize; 3] = [1, 2, 3];
const WIDTH: usize = 6;

/// Per set: `(LS, SS)` folded component by component in row order, the
/// way a scalar accumulator would, from `0.0`.
fn naive(dims: &[usize], rows: &[Vec<f64>]) -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut start = 0;
    dims.iter()
        .map(|&d| {
            let mut ls = vec![0.0; d];
            let mut ss = vec![0.0; d];
            for row in rows {
                for j in 0..d {
                    let v = row[start + j];
                    ls[j] += v;
                    ss[j] += v * v;
                }
            }
            start += d;
            (ls, ss)
        })
        .collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn build(layout: &AcfLayout, home: usize, rows: &[Vec<f64>]) -> Acf {
    let mut acf = Acf::empty(layout, home);
    for row in rows {
        acf.add_row(row);
    }
    acf
}

/// Every statistic of the view, as bit patterns (errors as `u64::MAX`).
fn stats(a: CfRef<'_>, b: CfRef<'_>, point: &[f64]) -> Vec<u64> {
    let r = |x: Result<f64, dar_core::CoreError>| x.map_or(u64::MAX, f64::to_bits);
    vec![
        a.diameter().to_bits(),
        a.diameter_sq().to_bits(),
        a.radius().to_bits(),
        a.square_sum_total().to_bits(),
        a.merged_diameter_sq(b).to_bits(),
        a.merged_diameter_sq_with_point(point).to_bits(),
        r(a.centroid_distance_sq_to_point(point)),
        r(a.d0(b)),
        r(a.d1(b)),
        r(a.d2(b)),
        r(a.d2_sq(b)),
        a.d3(b).to_bits(),
        r(a.d4(b)),
    ]
}

/// The same statistics through owned CFs.
fn owned_stats(a: &Cf, b: &Cf, point: &[f64]) -> Vec<u64> {
    let r = |x: Result<f64, dar_core::CoreError>| x.map_or(u64::MAX, f64::to_bits);
    vec![
        a.diameter().to_bits(),
        a.diameter_sq().to_bits(),
        a.radius().to_bits(),
        a.square_sum_total().to_bits(),
        a.merged_diameter_sq(b).to_bits(),
        a.merged_diameter_sq_with_point(point).to_bits(),
        r(a.centroid_distance_sq_to_point(point)),
        r(a.d0(b)),
        r(a.d1(b)),
        r(a.d2(b)),
        r(a.d2_sq(b)),
        a.d3(b).to_bits(),
        r(a.d4(b)),
    ]
}

#[test]
fn slab_moments_match_a_naive_componentwise_fold_bit_for_bit() {
    let layout = AcfLayout::new(DIMS.to_vec());
    assert_eq!(layout.total_dims(), WIDTH);
    proptest!(|(
        rows in prop::collection::vec(prop::collection::vec(-1.0e4f64..1.0e4, WIDTH..WIDTH + 1), 2..24),
        cut in 1usize..23,
        home in 0usize..3,
        scale in 0.1f64..3.0,
    )| {
        prop_assume!(cut < rows.len());
        // Non-dyadic: scale by a random factor and an irrational one.
        let rows: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|v| v * scale * std::f64::consts::FRAC_1_SQRT_2).collect())
            .collect();
        let (left_rows, right_rows) = rows.split_at(cut);

        // add_row
        let all = build(&layout, home, &rows);
        let want = naive(&DIMS, &rows);
        prop_assert_eq!(all.n(), rows.len() as u64);
        for (s, (ls, ss)) in want.iter().enumerate() {
            prop_assert_eq!(bits(all.image(s).linear_sum()), bits(ls), "add_row LS set {}", s);
            prop_assert_eq!(bits(all.image(s).square_sum()), bits(ss), "add_row SS set {}", s);
        }
        // The home box is the per-dimension min/max of the home rows.
        let start: usize = DIMS[..home].iter().sum();
        for j in 0..DIMS[home] {
            let lo = rows.iter().map(|r| r[start + j]).fold(f64::INFINITY, f64::min);
            let hi = rows.iter().map(|r| r[start + j]).fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(all.bbox().interval(j).lo.to_bits(), lo.to_bits());
            prop_assert_eq!(all.bbox().interval(j).hi.to_bits(), hi.to_bits());
        }

        // merge: each component is the sum of the two folds.
        let mut merged = build(&layout, home, left_rows);
        let right = build(&layout, home, right_rows);
        merged.merge(&right).unwrap();
        let (l, r) = (naive(&DIMS, left_rows), naive(&DIMS, right_rows));
        for s in 0..DIMS.len() {
            let ls: Vec<f64> = l[s].0.iter().zip(&r[s].0).map(|(a, b)| a + b).collect();
            let ss: Vec<f64> = l[s].1.iter().zip(&r[s].1).map(|(a, b)| a + b).collect();
            prop_assert_eq!(bits(merged.image(s).linear_sum()), bits(&ls), "merge LS set {}", s);
            prop_assert_eq!(bits(merged.image(s).square_sum()), bits(&ss), "merge SS set {}", s);
        }
        prop_assert_eq!(merged.bbox(), all.bbox());

        // unmerge: each component is (left + right) − right.
        merged.unmerge(&right).unwrap();
        prop_assert_eq!(merged.n(), cut as u64);
        for s in 0..DIMS.len() {
            let ls: Vec<f64> =
                l[s].0.iter().zip(&r[s].0).map(|(a, b)| (a + b) - b).collect();
            let ss: Vec<f64> =
                l[s].1.iter().zip(&r[s].1).map(|(a, b)| (a + b) - b).collect();
            prop_assert_eq!(bits(merged.image(s).linear_sum()), bits(&ls), "unmerge LS set {}", s);
            prop_assert_eq!(bits(merged.image(s).square_sum()), bits(&ss), "unmerge SS set {}", s);
        }

        // Views answer exactly like owned CFs over the same moments.
        let left = build(&layout, home, left_rows);
        for s in 0..DIMS.len() {
            let (a, b) = (left.image(s), right.image(s));
            let owned = |v: CfRef<'_>| {
                Cf::from_moments(v.n(), v.linear_sum().to_vec(), v.square_sum().to_vec()).unwrap()
            };
            let point = &rows[0][DIMS[..s].iter().sum::<usize>()..][..DIMS[s]];
            prop_assert_eq!(stats(a, b, point), owned_stats(&owned(a), &owned(b), point), "set {}", s);
            prop_assert_eq!(a.centroid().unwrap(), owned(a).centroid().unwrap());
        }
    });
}

#[test]
fn one_dimensional_and_empty_sets_fold_the_same_way() {
    // The paper's per-attribute partitioning takes `add_row`'s 1-D path; a
    // layout with an empty set has as many sets as dimensions but must not.
    for dims in [vec![1usize; 5], vec![0, 2, 1]] {
        let layout = AcfLayout::new(dims.clone());
        let width = layout.total_dims();
        let homes: Vec<usize> = (0..dims.len()).filter(|&s| dims[s] > 0).collect();
        proptest!(|(
            rows in prop::collection::vec(prop::collection::vec(-1.0e4f64..1.0e4, 5..6), 1..24),
            pick in 0usize..5,
        )| {
            let rows: Vec<Vec<f64>> = rows
                .iter()
                .map(|r| r[..width].iter().map(|v| v * std::f64::consts::PI).collect())
                .collect();
            let acf = build(&layout, homes[pick % homes.len()], &rows);
            for (s, (ls, ss)) in naive(&dims, &rows).iter().enumerate() {
                prop_assert_eq!(bits(acf.image(s).linear_sum()), bits(ls), "LS set {}", s);
                prop_assert_eq!(bits(acf.image(s).square_sum()), bits(ss), "SS set {}", s);
            }
        });
    }
}
