//! CLI harness regenerating the paper's tables and figures.
//!
//! ```text
//! figures [--fast] [--checkpoint-dir DIR] [--resume]
//!         [all|table1|fig3|fig4|fig5|fig7|fig8|fig9|esamples|elptime|edissem|naive1]...
//! ```
//!
//! Each figure is printed as an ASCII table and written to
//! `results/<id>.csv` (series,x,y). Requested figures are computed across
//! the worker pool (`PROSPECTOR_THREADS`), except those that report wall
//! time ([`WALL_CLOCK`]): they run one at a time after the pooled batch,
//! so no other figure shares the CPU while they are timed. Rendering and
//! CSV writes stay serial and in request order, so every other output is
//! identical at any thread count.
//!
//! `--checkpoint-dir DIR` records every completed figure in `DIR` as a
//! checksummed result file (written atomically); with `--resume`, figures
//! whose recorded results verify are rendered from the checkpoint instead
//! of recomputed, so a killed multi-figure sweep restarts from the first
//! unfinished figure. A corrupt or truncated record just means that one
//! figure is recomputed.

use prospector_bench::{figures, render_table, write_csv, CurvePoint, FigureResult};
use prospector_ckpt::fnv1a64;
use std::path::{Path, PathBuf};

/// Figures that report wall time: `elptime`'s solve times, `scale`'s
/// plan/evaluate/repair times and `obs`'s per-scenario `wall_s`.
const WALL_CLOCK: &[&str] = &["elptime", "obs", "scale"];

fn run_one(id: &str, title: &str, x_label: &str, y_label: &str, points: &[CurvePoint]) {
    println!("{}", render_table(title, x_label, y_label, points));
    let path = PathBuf::from("results").join(format!("{id}.csv"));
    match write_csv(&path, points) {
        Ok(()) => println!("[wrote {}]\n", path.display()),
        Err(e) => eprintln!("[failed to write {}: {e}]\n", path.display()),
    }
}

/// Serializes a finished figure for `--resume`. The body is plain text;
/// the first line carries an FNV-1a 64 checksum over everything after it,
/// so a torn write never masquerades as a completed figure.
fn figure_record(r: &FigureResult) -> String {
    let mut body = String::new();
    body.push_str(&format!("title={}\n", r.title));
    body.push_str(&format!("x_label={}\n", r.x_label));
    body.push_str(&format!("y_label={}\n", r.y_label));
    for p in &r.points {
        // f64 Display is shortest-roundtrip, so parse() restores the bits.
        body.push_str(&format!("{},{},{}\n", p.series, p.x, p.y));
    }
    format!("prospector-figure v1 checksum={:016x}\n{body}", fnv1a64(body.as_bytes()))
}

/// A figure restored from a checkpoint record: title, x label, y label
/// and the data points (the id is the record's filename).
type CachedFigure = (String, String, String, Vec<CurvePoint>);

/// Parses a record written by [`figure_record`], verifying its checksum.
fn parse_record(text: &str) -> Option<CachedFigure> {
    let (header, body) = text.split_once('\n')?;
    let sum =
        u64::from_str_radix(header.strip_prefix("prospector-figure v1 checksum=")?, 16).ok()?;
    if fnv1a64(body.as_bytes()) != sum {
        return None;
    }
    let mut lines = body.lines();
    let title = lines.next()?.strip_prefix("title=")?.to_string();
    let x_label = lines.next()?.strip_prefix("x_label=")?.to_string();
    let y_label = lines.next()?.strip_prefix("y_label=")?.to_string();
    let mut points = Vec::new();
    for line in lines {
        // Split from the right: series names may contain commas, but the
        // x and y columns are plain numbers.
        let mut it = line.rsplitn(3, ',');
        let y: f64 = it.next()?.parse().ok()?;
        let x: f64 = it.next()?.parse().ok()?;
        points.push(CurvePoint::new(it.next()?, x, y));
    }
    Some((title, x_label, y_label, points))
}

fn record_path(dir: &Path, id: &str) -> PathBuf {
    dir.join(format!("{id}.figure"))
}

fn save_record(dir: &Path, r: &FigureResult) {
    let path = record_path(dir, r.id);
    let tmp = dir.join(format!(".{}.figure.tmp", r.id));
    let write = std::fs::write(&tmp, figure_record(r)).and_then(|()| std::fs::rename(&tmp, &path));
    if let Err(e) = write {
        eprintln!("[failed to checkpoint {}: {e}]", path.display());
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let resume = args.iter().any(|a| a == "--resume");
    let ckpt_dir: Option<PathBuf> =
        args.iter().position(|a| a == "--checkpoint-dir").map(|i| match args.get(i + 1) {
            Some(dir) => PathBuf::from(dir),
            None => die("--checkpoint-dir needs a value"),
        });
    if resume && ckpt_dir.is_none() {
        die("--resume requires --checkpoint-dir");
    }
    if let Some(dir) = &ckpt_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("cannot create {}: {e}", dir.display()));
        }
    }

    let mut names: Vec<&str> = Vec::new();
    let mut skip = false;
    for a in &args {
        if skip {
            skip = false;
        } else if a == "--checkpoint-dir" {
            skip = true;
        } else if !a.starts_with("--") {
            names.push(a.as_str());
        }
    }
    let names: Vec<&str> = if names.is_empty() { vec!["all"] } else { names };

    // Resolve every requested name up front so a typo anywhere fails
    // before hours of figure computation.
    let mut jobs: Vec<(&str, figures::FigureFn)> = Vec::new();
    for name in names {
        if name == "all" {
            jobs.extend_from_slice(figures::REGISTRY);
        } else if let Some(f) = figures::by_name(name) {
            jobs.push((name, f));
        } else {
            let known: Vec<&str> = figures::REGISTRY.iter().map(|&(n, _)| n).collect();
            die(&format!("unknown figure '{name}'; known: all {}", known.join(" ")));
        }
    }

    // With --resume, figures whose checkpoint verifies are rendered from
    // it; everything else is (re)computed across the pool.
    let cached: Vec<Option<CachedFigure>> = jobs
        .iter()
        .map(|&(name, _)| {
            let dir = ckpt_dir.as_deref().filter(|_| resume)?;
            let text = std::fs::read_to_string(record_path(dir, name)).ok()?;
            let parsed = parse_record(&text);
            if parsed.is_none() {
                eprintln!("[checkpoint for {name} is corrupt; recomputing]");
            }
            parsed
        })
        .collect();

    let timed = |name: &str| WALL_CLOCK.contains(&name);
    let (alone, pooled): (Vec<_>, Vec<_>) = jobs
        .iter()
        .zip(&cached)
        .filter(|(_, c)| c.is_none())
        .map(|(&job, _)| job)
        .partition(|&(name, _)| timed(name));
    let mut fresh_pooled = prospector_par::par_map(&pooled, |_, &(_, f)| f(fast)).into_iter();
    let mut fresh_alone = alone.iter().map(|&(_, f)| f(fast)).collect::<Vec<_>>().into_iter();

    for (&(name, _), cache) in jobs.iter().zip(&cached) {
        match cache {
            Some((title, x_label, y_label, points)) => {
                println!("[{name}: restored from checkpoint]");
                run_one(name, title, x_label, y_label, points);
            }
            None => {
                let fresh = if timed(name) { &mut fresh_alone } else { &mut fresh_pooled };
                let r = fresh.next().expect("one result per uncached job");
                if let Some(dir) = &ckpt_dir {
                    save_record(dir, &r);
                }
                run_one(r.id, r.title, r.x_label, r.y_label, &r.points);
            }
        }
    }
}
