//! Trace/profile file I/O with format detection by extension.

use std::fs;
use std::path::Path;

use ibox_trace::{to_csv, FlowTrace};

/// Save a trace as `.json` or `.csv`.
pub fn save_trace(trace: &FlowTrace, path: &str) -> Result<(), String> {
    let text = match extension(path) {
        "json" => serde_json::to_string(trace).expect("trace serialization cannot fail"),
        "csv" => to_csv(trace),
        other => return Err(format!("unsupported output extension {other:?} (use .json or .csv)")),
    };
    fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Write any string artifact.
pub fn save_text(text: &str, path: &str) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn extension(path: &str) -> &str {
    Path::new(path).extension().and_then(|e| e.to_str()).unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibox::load_trace;
    use ibox_trace::{FlowMeta, PacketRecord};

    fn tmp(name: &str) -> String {
        std::env::temp_dir().join(name).to_string_lossy().into_owned()
    }

    fn sample() -> FlowTrace {
        FlowTrace::from_records(
            FlowMeta::new("p", "cubic", "0"),
            vec![
                PacketRecord::delivered(0, 0, 1400, 40_000_000),
                PacketRecord::lost(1, 1_000_000, 1400),
            ],
        )
    }

    #[test]
    fn json_roundtrip_via_files() {
        let path = tmp("ibox_cli_test_trace.json");
        save_trace(&sample(), &path).unwrap();
        let back = load_trace(&path).unwrap();
        assert_eq!(back, sample());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn csv_roundtrip_via_files() {
        let path = tmp("ibox_cli_test_trace.csv");
        save_trace(&sample(), &path).unwrap();
        let back = load_trace(&path).unwrap();
        assert_eq!(back.records(), sample().records());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn unknown_extension_rejected() {
        assert!(load_trace("trace.pcap").is_err());
        assert!(save_trace(&sample(), "x.yaml").is_err());
    }

    #[test]
    fn missing_file_reports_path() {
        let err = load_trace("/nonexistent/trace.json").unwrap_err();
        assert!(err.contains("/nonexistent/trace.json"));
    }
}
