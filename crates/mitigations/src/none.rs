//! The unprotected baseline (the paper's normalization reference).

use crate::traits::Mitigation;

/// No Row Hammer protection at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoMitigation;

impl NoMitigation {
    /// Creates the null mitigation.
    pub fn new() -> Self {
        NoMitigation
    }
}

impl Mitigation for NoMitigation {
    fn name(&self) -> &'static str {
        "Baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_fully_inert() {
        let mut m = NoMitigation::new();
        assert_eq!(m.name(), "Baseline");
        assert!(!m.uses_rfm());
        assert_eq!(m.translate(3, 9), 9);
        assert!(m.on_activate(0, 1, 2).refreshes.is_empty());
    }
}
