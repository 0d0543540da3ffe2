//! Plain-text rendering of experiment results — the "same rows/series the
//! paper reports", printable by the `experiments` binary and pasteable
//! into EXPERIMENTS.md.

use crate::experiments::{
    AblationRow, MixSeries, ModeComparison, OverheadPoint, PageAccessPoint, StalenessRow,
    UncertainQualityRow,
};
use crate::params::ParamSet;

/// Renders a query-mix figure (Figures 9–16) as a table per parameter set.
pub fn mix_table(title: &str, x_label: &str, series: &[MixSeries]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    for s in series {
        out.push_str(&format!("\n### {}\n", s.set.name()));
        out.push_str(&format!(
            "{:>10} | {:>9} | {:>9} | {:>9} | {:>8}\n",
            x_label, "single %", "multi %", "server %", "queries"
        ));
        out.push_str(&format!("{}\n", "-".repeat(58)));
        for p in &s.points {
            out.push_str(&format!(
                "{:>10} | {:>9.1} | {:>9.1} | {:>9.1} | {:>8}\n",
                trim_float(p.x),
                p.single_pct,
                p.multi_pct,
                p.server_pct,
                p.queries
            ));
        }
    }
    out
}

/// Renders the Figure 17 page-access comparison.
pub fn page_access_table(title: &str, data: &[(ParamSet, Vec<PageAccessPoint>)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    out.push_str(&format!(
        "{:>4} | {:>12} | {:>12} | {:>9} | {:>8}\n",
        "k", "EINN pages", "INN pages", "saving %", "queries"
    ));
    for (set, points) in data {
        out.push_str(&format!("--- {} ---\n", set.name()));
        for p in points {
            let saving = if p.inn > 0.0 {
                (1.0 - p.einn / p.inn) * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:>4} | {:>12.2} | {:>12.2} | {:>9.1} | {:>8}\n",
                p.k, p.einn, p.inn, saving, p.queries
            ));
        }
    }
    out
}

/// Renders the Section 4.3 movement-mode comparison.
pub fn mode_table(rows: &[ModeComparison]) -> String {
    let mut out = String::new();
    out.push_str("## Road-network vs free movement (SQRR)\n\n");
    out.push_str(&format!(
        "{:>22} | {:>8} | {:>9} | {:>9} | {:>8}\n",
        "set", "area mi", "road %", "free %", "delta"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>22} | {:>8.2} | {:>9.1} | {:>9.1} | {:>+8.1}\n",
            r.set.name(),
            r.area_miles,
            r.road_sqrr * 100.0,
            r.free_sqrr * 100.0,
            (r.free_sqrr - r.road_sqrr) * 100.0
        ));
    }
    out
}

/// Renders the design-choice ablation table.
pub fn ablation_table(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    out.push_str("## Design-choice ablation (LA 2x2 mi)\n\n");
    out.push_str(&format!(
        "{:>38} | {:>9} | {:>9} | {:>9} | {:>9}\n",
        "variant", "single %", "multi %", "server %", "exec s"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>38} | {:>9.1} | {:>9.1} | {:>9.1} | {:>9.3}\n",
            r.variant, r.single_pct, r.multi_pct, r.server_pct, r.exec_secs
        ));
    }
    out
}

/// Renders the accept-uncertain quality study.
pub fn uncertain_quality_table(rows: &[UncertainQualityRow]) -> String {
    let mut out = String::new();
    out.push_str("## Accepting uncertain answers: coverage vs quality (2x2 mi)\n\n");
    out.push_str(&format!(
        "{:>22} | {:>10} | {:>9} | {:>8} | {:>11}\n",
        "set", "accepted %", "server %", "exact %", "inflation %"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>22} | {:>10.1} | {:>9.1} | {:>8.1} | {:>11.2}\n",
            r.set.name(),
            r.accepted_pct,
            r.server_pct,
            r.exact_rate * 100.0,
            r.mean_inflation * 100.0
        ));
    }
    out
}

/// CSV rendering of a query-mix figure: one row per (set, x).
pub fn mix_csv(series: &[MixSeries]) -> String {
    let mut out = String::from("set,x,single_pct,multi_pct,server_pct,queries\n");
    for s in series {
        for p in &s.points {
            out.push_str(&format!(
                "{},{},{:.3},{:.3},{:.3},{}\n",
                s.set.label(),
                p.x,
                p.single_pct,
                p.multi_pct,
                p.server_pct,
                p.queries
            ));
        }
    }
    out
}

/// CSV rendering of the Figure 17 page-access comparison.
pub fn page_access_csv(data: &[(ParamSet, Vec<PageAccessPoint>)]) -> String {
    let mut out = String::from("set,k,einn_pages,inn_pages,queries\n");
    for (set, points) in data {
        for p in points {
            out.push_str(&format!(
                "{},{},{:.3},{:.3},{}\n",
                set.label(),
                p.k,
                p.einn,
                p.inn,
                p.queries
            ));
        }
    }
    out
}

/// Renders the P2P overhead study.
pub fn overhead_table(points: &[OverheadPoint]) -> String {
    let mut out = String::new();
    out.push_str("## P2P communication overhead vs server offload (LA 2x2 mi)\n\n");
    out.push_str(&format!(
        "{:>8} | {:>15} | {:>15} | {:>9}\n",
        "tx (m)", "entries/query", "records/query", "server %"
    ));
    for p in points {
        out.push_str(&format!(
            "{:>8} | {:>15.2} | {:>15.2} | {:>9.1}\n",
            p.tx_range_m, p.entries_per_query, p.records_per_query, p.server_pct
        ));
    }
    out
}

/// Renders the POI-churn / staleness study.
pub fn staleness_table(rows: &[StalenessRow]) -> String {
    let mut out = String::new();
    out.push_str("## POI churn vs cache staleness (LA 2x2 mi)\n\n");
    out.push_str(&format!(
        "{:>12} | {:>9} | {:>9} | {:>14}\n",
        "churn (1/h)", "TTL (s)", "server %", "stale answers %"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>12} | {:>9} | {:>9.1} | {:>14.2}\n",
            r.churn_per_hour,
            r.ttl_secs.map_or("off".to_string(), |t| format!("{t:.0}")),
            r.server_pct,
            r.stale_pct
        ));
    }
    out
}

fn trim_float(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::MixPoint;

    fn point(x: f64) -> MixPoint {
        MixPoint {
            x,
            single_pct: 50.0,
            multi_pct: 10.0,
            server_pct: 40.0,
            queries: 123,
        }
    }

    #[test]
    fn mix_table_renders_all_series() {
        let series = vec![
            MixSeries {
                set: ParamSet::LosAngeles,
                points: vec![point(20.0), point(200.0)],
            },
            MixSeries {
                set: ParamSet::Riverside,
                points: vec![point(20.0)],
            },
        ];
        let t = mix_table("Figure 9", "tx (m)", &series);
        assert!(t.contains("Figure 9"));
        assert!(t.contains("Los Angeles County"));
        assert!(t.contains("Riverside County"));
        assert!(t.contains("200"));
        assert!(t.contains("40.0"));
        assert_eq!(t.matches("single %").count(), 2);
    }

    #[test]
    fn page_access_table_computes_saving() {
        let data = vec![(
            ParamSet::Synthetic,
            vec![PageAccessPoint {
                k: 6,
                einn: 8.0,
                inn: 10.0,
                queries: 42,
            }],
        )];
        let t = page_access_table("Figure 17", &data);
        assert!(t.contains("20.0"), "saving of 20% rendered: {t}");
        assert!(t.contains("Synthetic"));
    }

    #[test]
    fn mode_table_shows_delta() {
        let rows = vec![ModeComparison {
            set: ParamSet::LosAngeles,
            area_miles: 2.0,
            road_sqrr: 0.50,
            free_sqrr: 0.44,
        }];
        let t = mode_table(&rows);
        assert!(t.contains("-6.0"), "delta rendered: {t}");
    }
}
