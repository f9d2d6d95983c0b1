//! Every front-end parses run fields through `RunSpec::set`: a bad value
//! is rejected by a CLI flag, a suite file and a service job alike, and
//! a good value yields the same `RunSpec` through all three.

use std::path::Path;

use secureloop::cli;
use secureloop::run::RunSpec;
use secureloop::service::JobSpec;
use secureloop::suite::load_scenario;
use secureloop_json::Json;

/// One run field as each front-end spells it: `(key, CLI value, YAML
/// value, JSON value)`.
type Field = (&'static str, &'static str, &'static str, &'static str);

/// Fields every case sets, so the front-ends' differing defaults do not
/// enter the comparison.
const BASE: [Field; 4] = [
    ("workload", "alexnet", "alexnet", "\"alexnet\""),
    ("samples", "100", "100", "100"),
    ("iterations", "10", "10", "10"),
    ("seed", "3", "3", "3"),
];

fn with(row: Field) -> Vec<Field> {
    BASE.iter()
        .copied()
        .filter(|f| f.0 != row.0)
        .chain([row])
        .collect()
}

fn via_cli(fields: &[Field]) -> Result<RunSpec, String> {
    let mut args = vec!["schedule".to_string()];
    for (key, v, _, _) in fields {
        args.push(format!("--{}", key.replace('_', "-")));
        args.push(v.to_string());
    }
    cli::parse(&args).map(|o| o.run).map_err(|e| e.to_string())
}

fn via_suite(dir: &Path, fields: &[Field]) -> Result<RunSpec, String> {
    let (mut top, mut search, mut crypto) = (String::new(), String::new(), String::new());
    for (key, _, v, _) in fields {
        match *key {
            "samples" | "iterations" | "seed" | "deadline_secs" => {
                search += &format!("  {key}: {v}\n")
            }
            "scheme" => crypto += &format!("  {key}: {v}\n"),
            _ => top += &format!("{key}: {v}\n"),
        }
    }
    let block = |name: &str, body: &str| {
        if body.is_empty() {
            String::new()
        } else {
            format!("{name}:\n{body}")
        }
    };
    let text = format!(
        "{top}arch:\n  engines: 3\n{}{}expect:\n  max_latency_cycles: 1\n",
        block("search", &search),
        block("crypto", &crypto)
    );
    let path = dir.join("scenario.yaml");
    std::fs::write(&path, text).expect("write scenario");
    load_scenario(&path)
        .map(|s| s.run)
        .map_err(|e| e.to_string())
}

fn via_job(fields: &[Field]) -> Result<RunSpec, String> {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, _, _, v)| format!("\"{key}\":{v}"))
        .collect();
    let v = Json::parse(&format!("{{\"id\":\"j\",{}}}", body.join(","))).expect("valid JSON");
    JobSpec::from_json(&v).map(|j| j.run)
}

#[test]
fn every_front_end_rejects_the_same_bad_values_and_agrees_on_good_ones() {
    let dir = std::env::temp_dir().join(format!("secureloop-run-spec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let bad: [Field; 10] = [
        ("algorithm", "quantum", "quantum", "\"quantum\""),
        ("scheme", "rot13", "rot13", "\"rot13\""),
        ("deadline_secs", "-1", "-1", "-1"),
        ("deadline_secs", "NaN", "NaN", "\"NaN\""),
        ("samples", "0", "0", "0"),
        ("samples", "-1", "-1", "-1"),
        ("samples", "\"500\"", "\"500\"", "\"500\""),
        ("iterations", "\"100\"", "\"100\"", "\"100\""),
        ("seed", "\"7\"", "\"7\"", "\"7\""),
        ("seed", "1.5", "1.5", "1.5"),
    ];
    for row in bad {
        let fields = with(row);
        let (key, value) = (row.0, row.3);
        assert!(via_cli(&fields).is_err(), "CLI accepted {key} = {value}");
        assert!(
            via_suite(&dir, &fields).is_err(),
            "suite accepted {key} = {value}"
        );
        assert!(via_job(&fields).is_err(), "job accepted {key} = {value}");
    }

    let good: [Field; 8] = [
        (
            "algorithm",
            "crypt-opt-single",
            "crypt-opt-single",
            "\"crypt-opt-single\"",
        ),
        (
            "algorithm",
            "Crypt-Tile-Single",
            "Crypt-Tile-Single",
            "\"Crypt-Tile-Single\"",
        ),
        ("scheme", "seculator", "seculator", "\"seculator\""),
        ("deadline_secs", "0", "0", "0"),
        ("deadline_secs", "2.5", "2.5", "2.5"),
        ("samples", "500", "500", "500"),
        ("iterations", "7", "7", "7"),
        ("seed", "9", "9", "9"),
    ];
    for row in good {
        let fields = with(row);
        let (key, value) = (row.0, row.3);
        let cli = via_cli(&fields).unwrap_or_else(|e| panic!("CLI rejected {key} = {value}: {e}"));
        let suite = via_suite(&dir, &fields)
            .unwrap_or_else(|e| panic!("suite rejected {key} = {value}: {e}"));
        let job = via_job(&fields).unwrap_or_else(|e| panic!("job rejected {key} = {value}: {e}"));
        assert_eq!(cli, suite, "CLI and suite disagree on {key} = {value}");
        assert_eq!(cli, job, "CLI and job disagree on {key} = {value}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
