//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments --figure 9            # one figure
//! experiments --all                 # figures 9-17, §4.3, ablation, uncertain
//! experiments --figure 10 --full    # unscaled Table 4 world (slow!)
//! experiments --all --quick         # smoke-test durations
//! experiments --all --csv out/      # additionally write CSV series
//! ```
//!
//! Output is the plain-text counterpart of each figure: per parameter set,
//! the percentage of queries resolved by single-peer verification,
//! multi-peer verification and the server (Figures 9–16); EINN vs INN
//! page accesses (Figure 17); road vs free movement SQRR (§4.3); plus two
//! extension studies (design-choice ablation, accept-uncertain quality).

use std::time::Instant;

use senn_sim::experiments as exp;
use senn_sim::report;
use senn_sim::ExpOptions;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figure: Option<String> = None;
    let mut all = false;
    let mut csv_dir: Option<String> = None;
    let mut opts = ExpOptions::default();
    let mut i = 0;
    let take = |i: &mut usize| -> String {
        *i += 1;
        let flag = &args[*i - 1];
        args.get(*i)
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
            .clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--figure" | "-f" => figure = Some(take(&mut i)),
            "--all" | "-a" => all = true,
            "--quick" => {
                let q = ExpOptions::quick();
                opts.hours_2mi = q.hours_2mi;
                opts.hours_30mi = q.hours_30mi;
                opts.scale_30mi = q.scale_30mi;
            }
            "--full" => opts.scale_30mi = 1.0,
            "--csv" => csv_dir = Some(take(&mut i)),
            "--seed" => opts.seed = parse(&take(&mut i)),
            "--reps" => opts.reps = parse(&take(&mut i)),
            "--scale" => opts.scale_30mi = parse(&take(&mut i)),
            "--help" | "-h" => {
                print_help();
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                print_help();
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let figures: Vec<String> = if all {
        ALL_FIGURES.iter().map(|s| s.to_string()).collect()
    } else {
        match figure {
            Some(f) => vec![f],
            None => {
                print_help();
                std::process::exit(2);
            }
        }
    };

    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }
    println!(
        "# mobishare-senn experiment harness (seed={}, 30mi-scale=1/{}, {}h/{}h sims, {} rep(s))\n",
        opts.seed, opts.scale_30mi, opts.hours_2mi, opts.hours_30mi, opts.reps
    );
    for f in figures {
        let t0 = Instant::now();
        run_figure(&f, &opts, csv_dir.as_deref());
        eprintln!("[figure {f} took {:.1}s]", t0.elapsed().as_secs_f64());
    }
}

const ALL_FIGURES: [&str; 14] = [
    "9",
    "10",
    "11",
    "12",
    "13",
    "14",
    "15",
    "16",
    "17",
    "free",
    "ablation",
    "uncertain",
    "overhead",
    "staleness",
];

/// (figure id, title, x label, driver) for the query-mix figures.
type MixDriver = fn(&ExpOptions) -> Vec<senn_sim::MixSeries>;
const MIX_FIGURES: [(&str, &str, &str, MixDriver); 8] = [
    (
        "9",
        "Figure 9: query mix vs transmission range (2x2 mi)",
        "tx (m)",
        exp::fig9,
    ),
    (
        "10",
        "Figure 10: query mix vs transmission range (30x30 mi, scaled)",
        "tx (m)",
        exp::fig10,
    ),
    (
        "11",
        "Figure 11: query mix vs cache capacity (2x2 mi)",
        "C_size",
        exp::fig11,
    ),
    (
        "12",
        "Figure 12: query mix vs cache capacity (30x30 mi, scaled)",
        "C_size",
        exp::fig12,
    ),
    (
        "13",
        "Figure 13: query mix vs movement velocity (2x2 mi)",
        "mph",
        exp::fig13,
    ),
    (
        "14",
        "Figure 14: query mix vs movement velocity (30x30 mi, scaled)",
        "mph",
        exp::fig14,
    ),
    ("15", "Figure 15: query mix vs k (2x2 mi)", "k", exp::fig15),
    (
        "16",
        "Figure 16: query mix vs k (30x30 mi, scaled)",
        "k",
        exp::fig16,
    ),
];

fn run_figure(f: &str, opts: &ExpOptions, csv_dir: Option<&str>) {
    let write_csv = |name: &str, contents: String| {
        if let Some(dir) = csv_dir {
            let path = format!("{dir}/{name}.csv");
            std::fs::write(&path, contents).expect("write csv");
            eprintln!("[wrote {path}]");
        }
    };

    if let Some((id, title, x_label, driver)) = MIX_FIGURES.iter().find(|(id, ..)| *id == f) {
        let data = driver(opts);
        write_csv(&format!("fig{id}"), report::mix_csv(&data));
        println!("{}", report::mix_table(title, x_label, &data));
        return;
    }
    match f {
        "17" => {
            let data = exp::fig17(opts);
            write_csv("fig17", report::page_access_csv(&data));
            println!(
                "{}",
                report::page_access_table(
                    "Figure 17: R*-tree page accesses, EINN vs INN, as a function of k",
                    &data
                )
            );
        }
        "free" | "4.3" => {
            println!(
                "{}",
                report::mode_table(&exp::free_movement_comparison(opts))
            )
        }
        "ablation" => println!("{}", report::ablation_table(&exp::ablation(opts))),
        "uncertain" => {
            println!(
                "{}",
                report::uncertain_quality_table(&exp::uncertain_quality(opts))
            )
        }
        "overhead" => println!("{}", report::overhead_table(&exp::overhead(opts))),
        "staleness" => println!("{}", report::staleness_table(&exp::staleness(opts))),
        other => {
            eprintln!("unknown figure: {other} (use 9..17, 'free', 'ablation', 'uncertain', 'overhead' or 'staleness')");
            std::process::exit(2);
        }
    }
}

fn print_help() {
    eprintln!(
        "usage: experiments (--figure <9..17|free|ablation|uncertain> | --all) \
         [--quick] [--full] [--scale <div>] [--seed <n>] [--reps <n>] [--csv <dir>]"
    );
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("bad numeric value: {s}")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
