//! Cabinet-grid heatmaps.
//!
//! The paper: "individual component graphs may decrease in value and
//! performance as the number of components plotted increases"; the remedy
//! is "reduced dimensionality through higher-level aggregations (e.g.,
//! percentage of components in a state, regardless of location)".  A
//! cabinet heatmap shows one cell per cabinet on a shade ramp — the
//! machine-room floor view operators actually use.

/// Shade ramp from cold to hot.
const SHADES: [char; 5] = ['.', '░', '▒', '▓', '█'];

/// A row-major grid of per-cabinet values.
pub struct CabinetHeatmap {
    title: String,
    columns: usize,
    values: Vec<f64>,
}

impl CabinetHeatmap {
    /// Build with `columns` cabinets per machine-room row.
    pub fn new(title: &str, columns: usize, values: Vec<f64>) -> CabinetHeatmap {
        assert!(columns > 0, "need at least one column");
        CabinetHeatmap { title: title.to_owned(), columns, values }
    }

    /// Shade character for a normalized value in `[0, 1]`.
    pub(crate) fn shade(norm: f64) -> char {
        let idx = (norm.clamp(0.0, 1.0) * (SHADES.len() - 1) as f64).round() as usize;
        SHADES[idx.min(SHADES.len() - 1)]
    }

    /// Render to text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        if self.values.is_empty() {
            out.push_str("  (no cabinets)\n");
            return out;
        }
        let min = self.values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = (max - min).max(1e-12);
        for (row_idx, row) in self.values.chunks(self.columns).enumerate() {
            out.push_str(&format!("  row {row_idx:>2}  "));
            for &v in row {
                out.push(Self::shade((v - min) / span));
                out.push(' ');
            }
            let row_mean = row.iter().sum::<f64>() / row.len() as f64;
            out.push_str(&format!("  mean {row_mean:.0}"));
            out.push('\n');
        }
        out.push_str(&format!("  scale: {min:.0} {} .. {} {max:.0}\n", SHADES[0], SHADES[4]));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shade_ramp() {
        assert_eq!(CabinetHeatmap::shade(0.0), '.');
        assert_eq!(CabinetHeatmap::shade(1.0), '█');
        assert_eq!(CabinetHeatmap::shade(0.5), '▒');
        // Clamped outside [0,1].
        assert_eq!(CabinetHeatmap::shade(-3.0), '.');
        assert_eq!(CabinetHeatmap::shade(9.0), '█');
    }

    #[test]
    fn renders_rows_and_scale() {
        let hm = CabinetHeatmap::new(
            "Cabinet power",
            4,
            vec![10.0, 10.0, 10.0, 10.0, 30.0, 30.0, 30.0, 30.0],
        );
        let text = hm.render();
        assert!(text.starts_with("Cabinet power\n"));
        assert!(text.contains("row  0"));
        assert!(text.contains("row  1"));
        // Cold row is dots, hot row is blocks.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains('.'));
        assert!(lines[2].contains('█'));
        assert!(text.contains("scale:"));
        assert!(text.contains("mean 10"));
        assert!(text.contains("mean 30"));
    }

    #[test]
    fn imbalance_is_visible() {
        // The Figure 3 situation: two cabinets at 1/3 power stand out.
        let mut values = vec![60_000.0; 8];
        values[3] = 20_000.0;
        values[4] = 20_000.0;
        let text = CabinetHeatmap::new("imbalance", 8, values).render();
        let grid_line = text.lines().nth(1).unwrap();
        assert!(grid_line.contains('█'), "hot cabinets");
        assert!(grid_line.contains('.'), "starved cabinets stand out");
    }

    #[test]
    fn ragged_last_row() {
        let text = CabinetHeatmap::new("r", 3, vec![1.0, 2.0, 3.0, 4.0]).render();
        assert!(text.contains("row  1"));
    }

    #[test]
    fn empty_heatmap_says_so() {
        assert!(CabinetHeatmap::new("e", 4, vec![]).render().contains("(no cabinets)"));
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn zero_columns_rejected() {
        CabinetHeatmap::new("x", 0, vec![1.0]);
    }
}
