//! Regenerates the qualitative scheme-comparison table (the paper's Figure 2) from the
//! `SchemeProperties` metadata reported by every registered reclaimer, in registry order.

use crate::experiments::ReclaimerKind;

fn tick(b: bool) -> &'static str {
    if b {
        "x"
    } else {
        ""
    }
}

/// Renders the Figure 2 table as markdown.
pub fn render_markdown() -> String {
    let mut out = String::new();
    out.push_str("| Scheme | per accessed record | per operation | per retired record | other modifications | timing assumptions | fault tolerant | reclamation termination | retired→retired traversal |\n");
    out.push_str("|--------|---------------------|---------------|--------------------|---------------------|--------------------|----------------|-------------------------|---------------------------|\n");
    for s in ReclaimerKind::all().map(ReclaimerKind::properties) {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            s.name,
            tick(s.code_modifications.per_accessed_record),
            tick(s.code_modifications.per_operation),
            tick(s.code_modifications.per_retired_record),
            s.code_modifications.other,
            s.timing_assumptions,
            tick(s.fault_tolerant),
            s.termination,
            tick(s.can_traverse_retired_to_retired),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_contains_every_scheme_and_matches_figure2_highlights() {
        let md = render_markdown();
        for name in ["None", "EBR", "HP", "ThreadScan", "IBR", "VBR", "DEBRA", "DEBRA+"] {
            assert!(md.contains(name), "missing scheme {name}");
        }
        let schemes: Vec<_> = ReclaimerKind::all().map(ReclaimerKind::properties).collect();
        let debra_plus = schemes.iter().find(|s| s.name == "DEBRA+").unwrap();
        assert!(debra_plus.fault_tolerant);
        assert!(debra_plus.can_traverse_retired_to_retired);
        let hp = schemes.iter().find(|s| s.name == "HP").unwrap();
        assert!(hp.code_modifications.per_accessed_record);
        assert!(!hp.can_traverse_retired_to_retired);
        let ebr = schemes.iter().find(|s| s.name == "EBR").unwrap();
        assert!(!ebr.fault_tolerant);
        let ibr = schemes.iter().find(|s| s.name == "IBR").unwrap();
        assert!(ibr.fault_tolerant, "bounded garbage under stalls is IBR's whole point");
        assert!(ibr.can_traverse_retired_to_retired);
        let vbr = schemes.iter().find(|s| s.name == "VBR").unwrap();
        assert!(
            !vbr.code_modifications.per_accessed_record,
            "announcement-free reads are VBR's whole point"
        );
        assert!(vbr.fault_tolerant);
    }
}
