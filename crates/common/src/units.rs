//! Byte and time unit helpers.
//!
//! The paper's evaluation speaks in MB/GB/TB per machine and seconds of
//! runtime; these helpers keep the benchmark harness and the simulator's
//! parameter tables readable.

/// One kibibyte... no — Hurricane, like the paper, uses decimal units:
/// "320MB", "3.2TB", "330MB/s" are all powers of ten.
pub const KB: u64 = 1_000;
/// One megabyte (10^6 bytes).
pub const MB: u64 = 1_000_000;
/// One gigabyte (10^9 bytes).
pub const GB: u64 = 1_000_000_000;
/// One terabyte (10^12 bytes).
pub const TB: u64 = 1_000_000_000_000;

/// Formats seconds the way the paper prints runtimes ("5.7s", "959s", ">12h").
pub fn fmt_secs(secs: f64) -> String {
    if secs >= 3600.0 {
        format!("{:.1}h", secs / 3600.0)
    } else if secs >= 100.0 {
        format!("{}s", secs.round() as u64)
    } else {
        format!("{secs:.1}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_formatting() {
        assert_eq!(fmt_secs(5.7), "5.7s");
        assert_eq!(fmt_secs(959.4), "959s");
        assert_eq!(fmt_secs(43_200.0), "12.0h");
    }
}
