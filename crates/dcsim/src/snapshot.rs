//! The testbed snapshot document: the measured campaign data (profile
//! sets + pair table) as one JSON object, written and read through
//! [`tracon_stats::json`] like every other document in the workspace.
//! [`encode`] is the layout (DESIGN.md §11 spells it out).
//!
//! Unknown keys are ignored, so files from the derive-generated writer
//! this replaced still load (they carry a redundant `perf.id_index`,
//! which is recomputed from `names`). A snapshot is outside input: every
//! missing or ill-typed field, wrong-length array and `null` statistic
//! (how the codec writes a non-finite number) is an error naming the field.

use crate::perf::PerfTable;
use tracon_stats::json::{self, n, obj, s, Value};
use tracon_vmsim::{ProfileRecord, ProfileSet, VmObservation};

fn list(items: impl Iterator<Item = Value>) -> Value {
    Value::Arr(items.collect())
}

fn nums(xs: impl IntoIterator<Item = f64>) -> Value {
    list(xs.into_iter().map(n))
}

/// Serializes the campaign data; the keys written here are the layout.
pub(crate) fn encode(profiles: &[ProfileSet], perf: &PerfTable) -> String {
    let record = |r: &ProfileRecord| {
        obj(vec![
            ("target", s(&r.target)),
            ("background", s(&r.background)),
            ("features", nums(r.features)),
            ("background_observed", nums(r.background_observed)),
            ("runtime", n(r.runtime)),
            ("iops", n(r.iops)),
        ])
    };
    let set = |p: &ProfileSet| {
        let solo = obj(vec![
            ("read_rps", n(p.solo.read_rps)),
            ("write_rps", n(p.solo.write_rps)),
            ("cpu_util", n(p.solo.cpu_util)),
            ("dom0_util", n(p.solo.dom0_util)),
        ]);
        obj(vec![
            ("target", s(&p.target)),
            ("solo", solo),
            ("solo_runtime", n(p.solo_runtime)),
            ("solo_iops", n(p.solo_iops)),
            ("records", list(p.records.iter().map(record))),
        ])
    };
    let apps = perf.n_apps();
    let solos = |stat: fn(&PerfTable, usize) -> f64| nums((0..apps).map(|a| stat(perf, a)));
    let pairs = |stat: fn(&PerfTable, usize, usize) -> f64| {
        nums((0..apps * apps).map(|i| stat(perf, i / apps, i % apps)))
    };
    let table = obj(vec![
        ("names", list(perf.names.iter().map(s))),
        ("solo_runtime", solos(PerfTable::solo_runtime)),
        ("solo_iops", solos(PerfTable::solo_iops)),
        ("runtime", pairs(PerfTable::runtime)),
        ("iops", pairs(PerfTable::iops)),
    ]);
    obj(vec![
        ("profiles", list(profiles.iter().map(set))),
        ("perf", table),
    ])
    .to_string()
}

/// `doc[key]`; `at` is the path of `doc` itself (`""` or `"perf."`…).
fn field<'a>(doc: &'a Value, at: &str, key: &str) -> Result<&'a Value, String> {
    doc.get(key)
        .ok_or_else(|| format!("snapshot: missing field {at}{key}"))
}

fn num(doc: &Value, at: &str, key: &str) -> Result<f64, String> {
    field(doc, at, key)?
        .as_f64()
        .ok_or_else(|| format!("snapshot: {at}{key} is not a finite number"))
}

fn text(doc: &Value, at: &str, key: &str) -> Result<String, String> {
    match field(doc, at, key)?.as_str() {
        Some(text) => Ok(text.to_string()),
        None => Err(format!("snapshot: {at}{key} is not a string")),
    }
}

fn arr<'a>(doc: &'a Value, at: &str, key: &str) -> Result<&'a [Value], String> {
    field(doc, at, key)?
        .as_arr()
        .ok_or_else(|| format!("snapshot: {at}{key} is not an array"))
}

/// `doc[key]` as exactly `len` finite numbers.
fn num_vec(doc: &Value, at: &str, key: &str, len: usize) -> Result<Vec<f64>, String> {
    let items = arr(doc, at, key)?;
    if items.len() != len {
        return Err(format!(
            "snapshot: {at}{key} holds {} entries, expected {len}",
            items.len()
        ));
    }
    let entry = |v: &Value| {
        v.as_f64().ok_or_else(|| {
            format!("snapshot: {at}{key} holds an entry that is not a finite number")
        })
    };
    items.iter().map(entry).collect()
}

fn num_array<const N: usize>(doc: &Value, at: &str, key: &str) -> Result<[f64; N], String> {
    let items = num_vec(doc, at, key, N)?;
    Ok(items.try_into().expect("num_vec returns exactly N numbers"))
}

fn decode_set(doc: &Value, at: &str) -> Result<ProfileSet, String> {
    let solo = field(doc, at, "solo")?;
    let solo_at = format!("{at}solo.");
    let mut records = Vec::new();
    for (i, rec) in arr(doc, at, "records")?.iter().enumerate() {
        let at = format!("{at}records[{i}].");
        records.push(ProfileRecord {
            target: text(rec, &at, "target")?,
            background: text(rec, &at, "background")?,
            features: num_array(rec, &at, "features")?,
            background_observed: num_array(rec, &at, "background_observed")?,
            runtime: num(rec, &at, "runtime")?,
            iops: num(rec, &at, "iops")?,
        });
    }
    if records.is_empty() {
        // Model training rejects an empty set by panicking.
        return Err(format!("snapshot: {at}records is empty"));
    }
    Ok(ProfileSet {
        target: text(doc, at, "target")?,
        solo: VmObservation {
            read_rps: num(solo, &solo_at, "read_rps")?,
            write_rps: num(solo, &solo_at, "write_rps")?,
            cpu_util: num(solo, &solo_at, "cpu_util")?,
            dom0_util: num(solo, &solo_at, "dom0_util")?,
        },
        solo_runtime: num(doc, at, "solo_runtime")?,
        solo_iops: num(doc, at, "solo_iops")?,
        records,
    })
}

/// Parses and validates a snapshot document.
pub(crate) fn decode(document: &str) -> Result<(Vec<ProfileSet>, PerfTable), String> {
    let doc = json::parse(document).map_err(|e| format!("snapshot: not JSON: {e}"))?;
    let mut profiles = Vec::new();
    for (i, set) in arr(&doc, "", "profiles")?.iter().enumerate() {
        profiles.push(decode_set(set, &format!("profiles[{i}]."))?);
    }
    let perf = field(&doc, "", "perf")?;
    let mut names = Vec::new();
    for name in arr(perf, "perf.", "names")? {
        let name = name
            .as_str()
            .ok_or("snapshot: perf.names holds a non-string")?;
        names.push(name.to_string());
    }
    let apps = names.len();
    let perf = PerfTable::from_parts(
        names,
        num_vec(perf, "perf.", "solo_runtime", apps)?,
        num_vec(perf, "perf.", "solo_iops", apps)?,
        num_vec(perf, "perf.", "runtime", apps * apps)?,
        num_vec(perf, "perf.", "iops", apps * apps)?,
    );
    Ok((profiles, perf))
}
