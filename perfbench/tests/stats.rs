//! The order statistics every reported number goes through.

use ptdg_perfbench::stats::{
    median, percentile, percentile_reportable, quartiles, relative_iqr, samples_beyond,
};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[4.0]), Some(4.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
    // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
    assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 3.0, 5.0)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn relative_iqr_is_a_share_of_the_median() {
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((relative_iqr(&xs).unwrap() - 5.5 / 5.5).abs() < 1e-12);
    assert_eq!(relative_iqr(&[2.0, 2.0, 2.0]), Some(0.0));
}

#[test]
fn nearest_rank_percentiles() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), Some(50.0));
    assert_eq!(percentile(&xs, 90.0), Some(90.0));
    assert_eq!(percentile(&xs, 100.0), Some(100.0));
    assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn p90_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(100, 90.0), 10);
    assert!(percentile_reportable(100, 90.0));
    assert_eq!(samples_beyond(99, 90.0), 9);
    assert!(!percentile_reportable(99, 90.0));
    assert!(!percentile_reportable(0, 90.0));
    // The median needs only 20 samples.
    assert!(percentile_reportable(20, 50.0));
    assert!(!percentile_reportable(19, 50.0));
}
