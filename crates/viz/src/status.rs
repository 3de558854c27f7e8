//! Component-state status board.
//!
//! Paper §III-B: "Reduced dimensionality through higher-level aggregations
//! (e.g., percentage of components in a state, regardless of location)
//! coupled with drill-down capabilities can enable better at-a-glance
//! understanding."  A [`StatusBoard`] is exactly the at-a-glance half:
//! one row per component class, a percent bar per state.

/// Counts of one component class in each state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassStatus {
    /// Class label, e.g. "nodes", "links", "OSTs".
    pub class: String,
    /// State label → count, in display order.
    pub states: Vec<(String, usize)>,
}

impl ClassStatus {
    /// Build a class row.
    pub fn new(class: &str, states: Vec<(&str, usize)>) -> ClassStatus {
        ClassStatus {
            class: class.to_owned(),
            states: states.into_iter().map(|(s, c)| (s.to_owned(), c)).collect(),
        }
    }

    /// Total components in the class.
    pub(crate) fn total(&self) -> usize {
        self.states.iter().map(|(_, c)| c).sum()
    }

    /// Fraction in the first ("good") state, in `[0, 1]`; 1.0 for an
    /// empty class.
    pub(crate) fn healthy_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        self.states.first().map(|(_, c)| *c as f64 / total as f64).unwrap_or(1.0)
    }
}

/// A stack of class rows.
#[derive(Debug, Clone, Default)]
pub struct StatusBoard {
    title: String,
    rows: Vec<ClassStatus>,
}

impl StatusBoard {
    /// Empty board.
    pub fn new(title: &str) -> StatusBoard {
        StatusBoard { title: title.to_owned(), rows: Vec::new() }
    }

    /// Add a class row.
    #[allow(clippy::should_implement_trait)] // builder-style add, not ops::Add
    pub fn add(mut self, row: ClassStatus) -> StatusBoard {
        self.rows.push(row);
        self
    }

    /// Render: `class  [#####....]  97.5% good   up=1234 down=3 ...`.
    pub fn render(&self) -> String {
        let mut out = format!("{}\n", self.title);
        let label_w = self.rows.iter().map(|r| r.class.len()).max().unwrap_or(4).max(4);
        for row in &self.rows {
            let frac = row.healthy_fraction();
            let filled = (frac * 20.0).round() as usize;
            let bar: String = "#".repeat(filled) + &".".repeat(20 - filled.min(20));
            let states: Vec<String> = row.states.iter().map(|(s, c)| format!("{s}={c}")).collect();
            out.push_str(&format!(
                "  {:<label_w$} [{bar}] {:>6.1}% good   {}\n",
                row.class,
                frac * 100.0,
                states.join(" ")
            ));
        }
        out
    }

    /// The worst (least healthy) class, if any rows exist.
    pub fn worst(&self) -> Option<&ClassStatus> {
        self.rows
            .iter()
            .min_by(|a, b| a.healthy_fraction().partial_cmp(&b.healthy_fraction()).expect("no NaN"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board() -> StatusBoard {
        StatusBoard::new("Machine state")
            .add(ClassStatus::new("nodes", vec![("up", 120), ("hung", 2), ("down", 6)]))
            .add(ClassStatus::new("links", vec![("up", 760), ("down", 8)]))
            .add(ClassStatus::new("OSTs", vec![("healthy", 16), ("degraded", 0)]))
    }

    #[test]
    fn fractions_and_totals() {
        let row = ClassStatus::new("nodes", vec![("up", 90), ("down", 10)]);
        assert_eq!(row.total(), 100);
        assert!((row.healthy_fraction() - 0.9).abs() < 1e-12);
        let empty = ClassStatus::new("ghosts", vec![]);
        assert_eq!(empty.total(), 0);
        assert_eq!(empty.healthy_fraction(), 1.0);
    }

    #[test]
    fn render_shows_bars_and_counts() {
        let text = board().render();
        assert!(text.starts_with("Machine state\n"));
        assert!(text.contains("nodes"));
        assert!(text.contains("up=120"));
        assert!(text.contains("down=6"));
        assert!(text.contains("93.8% good"), "{text}");
        assert!(text.contains("100.0% good"));
        assert!(text.contains('#'));
    }

    #[test]
    fn worst_class_identified() {
        let b = board();
        assert_eq!(b.worst().unwrap().class, "nodes");
        assert!(StatusBoard::new("empty").worst().is_none());
    }

    #[test]
    fn fully_broken_class_renders() {
        let text = StatusBoard::new("bad")
            .add(ClassStatus::new("links", vec![("up", 0), ("down", 5)]))
            .render();
        assert!(text.contains("0.0% good"));
        assert!(text.contains("[....................]"));
    }
}
