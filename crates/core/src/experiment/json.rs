//! Dependency-free JSON encoding/decoding for [`Dataset`], [`RunSpec`],
//! [`ShardFragment`] and [`TimingFile`] (the build environment has no serde;
//! see DESIGN.md).
//!
//! Numbers are written with Rust's shortest round-trip `Display` formatting
//! and parsed with `str::parse::<f64>`, so every finite value — and every
//! `u64` seed, which is kept as a raw token rather than routed through
//! `f64` — survives a write/parse cycle exactly. That exactness is what lets
//! `figures merge` reproduce a single-process run byte-for-byte.

use super::{Dataset, ItemResult, Row, RunSpec, Series, Shard, ShardFragment, TimingFile};
use crate::figures::Scale;
use crate::json::{escape_into, num_into, opt_str_into, parse_document, Value};
use std::fmt::Display;
use std::str::FromStr;

// ---------------------------------------------------------------- encoding

fn dataset_into(out: &mut String, ds: &Dataset) {
    out.push_str("{\"meta\":[");
    for (i, (k, v)) in ds.meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        escape_into(out, k);
        out.push(',');
        escape_into(out, v);
        out.push(']');
    }
    out.push_str("],\"series\":[");
    for (i, s) in ds.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"label\":");
        escape_into(out, &s.label);
        out.push_str(",\"points\":[");
        for (j, &(x, y)) in s.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('[');
            num_into(out, x);
            out.push(',');
            num_into(out, y);
            out.push(']');
        }
        out.push_str("]}");
    }
    out.push_str("],\"columns\":[");
    for (i, c) in ds.columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(out, c);
    }
    out.push_str("],\"rows\":[");
    for (i, r) in ds.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"label\":");
        escape_into(out, &r.label);
        out.push_str(",\"values\":[");
        for (j, &v) in r.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            num_into(out, v);
        }
        out.push_str("]}");
    }
    out.push_str("],\"cells\":[");
    for (i, c) in ds.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        escape_into(out, &c.name);
        out.push_str(",\"value\":");
        num_into(out, c.value);
        out.push('}');
    }
    out.push_str("]}");
}

/// Renders a dataset as a JSON object.
pub(super) fn dataset_to_json(ds: &Dataset) -> String {
    let mut out = String::new();
    dataset_into(&mut out, ds);
    out
}

/// Appends a run's members: `"scale":"S","seed":N,"topo":T,"traffic":W`,
/// each override a spec string or `null`.
pub(super) fn run_members_into(out: &mut String, run: &RunSpec) {
    out.push_str(&format!("\"scale\":\"{}\",\"seed\":{},\"topo\":", run.scale, run.seed));
    opt_str_into(out, run.topo.as_ref().map(ToString::to_string).as_deref());
    out.push_str(",\"traffic\":");
    opt_str_into(out, run.traffic.as_ref().map(ToString::to_string).as_deref());
}

/// Renders a shard fragment as one line of JSON.
pub(super) fn fragment_to_json(frag: &ShardFragment) -> String {
    let mut out = String::new();
    out.push_str("{\"experiment\":");
    escape_into(&mut out, &frag.experiment);
    out.push(',');
    run_members_into(&mut out, &frag.run);
    out.push_str(&format!(
        ",\"shard\":[{},{}],\"timings_us\":[",
        frag.shard.index, frag.shard.count
    ));
    for (i, t) in frag.timings_us.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{t}"));
    }
    out.push_str("],\"items\":[");
    for (i, item) in frag.items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"index\":{},\"data\":", item.index));
        dataset_into(&mut out, &item.data);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Renders a timing file (`figures launch`'s `timings.json`) as JSON.
pub(super) fn timing_file_to_json(tf: &TimingFile) -> String {
    let mut out = String::from("{");
    run_members_into(&mut out, &tf.run);
    out.push_str(",\"experiments\":[");
    for (i, (name, timings)) in tf.experiments.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        escape_into(&mut out, name);
        out.push_str(",[");
        for (j, t) in timings.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{t}"));
        }
        out.push_str("]]");
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------- decoding

fn dataset_from_value(v: &Value) -> Result<Dataset, String> {
    let mut ds = Dataset::new();
    for pair in v.get("meta")?.as_arr()? {
        let kv = pair.as_arr()?;
        if kv.len() != 2 {
            return Err("meta entry is not a [key, value] pair".to_string());
        }
        ds.push_meta(kv[0].as_str()?.to_string(), kv[1].as_str()?.to_string());
    }
    for s in v.get("series")?.as_arr()? {
        let label = s.get("label")?.as_str()?.to_string();
        let mut points = Vec::new();
        for p in s.get("points")?.as_arr()? {
            let xy = p.as_arr()?;
            if xy.len() != 2 {
                return Err("series point is not an [x, y] pair".to_string());
            }
            points.push((xy[0].as_f64()?, xy[1].as_f64()?));
        }
        ds.series.push(Series::new(label, points));
    }
    for c in v.get("columns")?.as_arr()? {
        ds.columns.push(c.as_str()?.to_string());
    }
    for r in v.get("rows")?.as_arr()? {
        let label = r.get("label")?.as_str()?.to_string();
        let values =
            r.get("values")?.as_arr()?.iter().map(Value::as_f64).collect::<Result<_, _>>()?;
        ds.rows.push(Row { label, values });
    }
    for c in v.get("cells")?.as_arr()? {
        ds.push_cell(c.get("name")?.as_str()?.to_string(), c.get("value")?.as_f64()?);
    }
    Ok(ds)
}

/// Reads the members [`run_members_into`] writes. All four are required, and
/// the override specs are parsed here, so nothing downstream parses them
/// again.
fn run_from_value(v: &Value) -> Result<RunSpec, String> {
    let scale: Scale = v.get("scale")?.as_str()?.parse().map_err(|e| format!("{e}"))?;
    let seed = v.get("seed")?.as_u64()?;
    Ok(RunSpec { scale, seed, topo: spec_member(v, "topo")?, traffic: spec_member(v, "traffic")? })
}

/// A required member holding a spec string or `null`, parsed.
fn spec_member<T: FromStr>(v: &Value, key: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    match v.get(key)? {
        Value::Null => Ok(None),
        value => {
            let raw = value.as_str()?;
            raw.parse().map(Some).map_err(|e| format!("unparsable {key} spec '{raw}': {e}"))
        }
    }
}

/// Parses [`fragment_to_json`] output.
pub(super) fn fragment_from_json(text: &str) -> Result<ShardFragment, String> {
    let v = parse_document(text)?;
    let experiment = v.get("experiment")?.as_str()?.to_string();
    let run = run_from_value(&v)?;
    let shard = v.get("shard")?.as_arr()?;
    if shard.len() != 2 {
        return Err("'shard' is not a [K, N] pair".to_string());
    }
    let shard = Shard::new(shard[0].as_usize()?, shard[1].as_usize()?)?;
    let timings_us: Vec<u64> =
        v.get("timings_us")?.as_arr()?.iter().map(Value::as_u64).collect::<Result<_, _>>()?;
    let mut items = Vec::new();
    for item in v.get("items")?.as_arr()? {
        items.push(ItemResult::new(
            item.get("index")?.as_usize()?,
            dataset_from_value(item.get("data")?)?,
        ));
    }
    if timings_us.len() != items.len() {
        return Err(format!(
            "fragment carries {} timings for {} items; the file is corrupt or truncated",
            timings_us.len(),
            items.len()
        ));
    }
    Ok(ShardFragment { experiment, run, shard, timings_us, items })
}

/// Parses [`timing_file_to_json`] output.
pub(super) fn timing_file_from_json(text: &str) -> Result<TimingFile, String> {
    let v = parse_document(text)?;
    let mut tf = TimingFile::new(run_from_value(&v)?);
    for entry in v.get("experiments")?.as_arr()? {
        let pair = entry.as_arr()?;
        if pair.len() != 2 {
            return Err("timing entry is not a [name, timings] pair".to_string());
        }
        let timings = pair[1].as_arr()?.iter().map(Value::as_u64).collect::<Result<Vec<_>, _>>()?;
        tf.record(pair[0].as_str()?.to_string(), timings);
    }
    Ok(tf)
}
