//! Dependency-free JSON encoding/decoding for [`Dataset`] and
//! [`ShardFragment`] (the build environment has no serde; see DESIGN.md).
//!
//! Numbers are written with Rust's shortest round-trip `Display` formatting
//! and parsed with `str::parse::<f64>`, so every finite value — and every
//! `u64` seed, which is kept as a raw token rather than routed through
//! `f64` — survives a write/parse cycle exactly. That exactness is what lets
//! `figures merge` reproduce a single-process run byte-for-byte.

use super::{Dataset, ItemResult, Row, Series, Shard, ShardFragment, TimingFile};
use crate::figures::Scale;
use crate::json::{escape_into, num_into, opt_str_into, parse_document, Value};

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

/// Renders a shard fragment as one line of JSON.
pub(super) fn fragment_to_json(frag: &ShardFragment) -> String {
    let mut out = String::new();
    out.push_str("{\"experiment\":");
    escape_into(&mut out, &frag.experiment);
    out.push_str(&format!(",\"scale\":\"{}\",\"seed\":{},\"topo\":", frag.scale, frag.seed));
    opt_str_into(&mut out, frag.topo.as_deref());
    out.push_str(",\"traffic\":");
    opt_str_into(&mut out, frag.traffic.as_deref());
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
    let mut out = String::new();
    out.push_str(&format!("{{\"scale\":\"{}\",\"seed\":{},\"topo\":", tf.scale, tf.seed));
    opt_str_into(&mut out, tf.topo.as_deref());
    out.push_str(",\"traffic\":");
    opt_str_into(&mut out, tf.traffic.as_deref());
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
    // `meta` is optional so fragments written before it existed still parse.
    if let Ok(meta) = v.get("meta") {
        for pair in meta.as_arr()? {
            let kv = pair.as_arr()?;
            if kv.len() != 2 {
                return Err("meta entry is not a [key, value] pair".to_string());
            }
            ds.push_meta(kv[0].as_str()?.to_string(), kv[1].as_str()?.to_string());
        }
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

/// Parses [`dataset_to_json`] output.
pub(super) fn dataset_from_json(text: &str) -> Result<Dataset, String> {
    dataset_from_value(&parse_document(text)?)
}

/// Parses [`fragment_to_json`] output.
pub(super) fn fragment_from_json(text: &str) -> Result<ShardFragment, String> {
    let v = parse_document(text)?;
    let experiment = v.get("experiment")?.as_str()?.to_string();
    let scale: Scale = v.get("scale")?.as_str()?.parse().map_err(|e| format!("{e}"))?;
    let seed = v.get("seed")?.as_u64()?;
    // `topo` and `traffic` are optional so fragments written before they
    // existed still parse.
    let topo = match v.get("topo") {
        Ok(Value::Null) | Err(_) => None,
        Ok(value) => Some(value.as_str()?.to_string()),
    };
    let traffic = match v.get("traffic") {
        Ok(Value::Null) | Err(_) => None,
        Ok(value) => Some(value.as_str()?.to_string()),
    };
    let shard = v.get("shard")?.as_arr()?;
    if shard.len() != 2 {
        return Err("'shard' is not a [K, N] pair".to_string());
    }
    let shard = Shard::new(shard[0].as_usize()?, shard[1].as_usize()?)?;
    // `timings_us` is optional so fragments written before it existed still
    // parse; when present it must pair up with the items exactly.
    let timings_us: Vec<u64> = match v.get("timings_us") {
        Ok(arr) => arr.as_arr()?.iter().map(Value::as_u64).collect::<Result<_, _>>()?,
        Err(_) => Vec::new(),
    };
    let mut items = Vec::new();
    for item in v.get("items")?.as_arr()? {
        items.push(ItemResult::new(
            item.get("index")?.as_usize()?,
            dataset_from_value(item.get("data")?)?,
        ));
    }
    if !timings_us.is_empty() && timings_us.len() != items.len() {
        return Err(format!(
            "fragment carries {} timings for {} items; the file is corrupt or truncated",
            timings_us.len(),
            items.len()
        ));
    }
    Ok(ShardFragment { experiment, scale, seed, topo, traffic, shard, timings_us, items })
}

/// Parses [`timing_file_to_json`] output.
pub(super) fn timing_file_from_json(text: &str) -> Result<TimingFile, String> {
    let v = parse_document(text)?;
    let scale: Scale = v.get("scale")?.as_str()?.parse().map_err(|e| format!("{e}"))?;
    let seed = v.get("seed")?.as_u64()?;
    let topo = match v.get("topo") {
        Ok(Value::Null) | Err(_) => None,
        Ok(value) => Some(value.as_str()?.to_string()),
    };
    let traffic = match v.get("traffic") {
        Ok(Value::Null) | Err(_) => None,
        Ok(value) => Some(value.as_str()?.to_string()),
    };
    let mut tf = TimingFile::new(scale, seed, topo, traffic);
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
