//! Deterministic flamegraph SVG rendering for `tsv3d trace --svg`.
//!
//! Turns the collapsed-stack output ([`crate::trace::CollapsedPath`])
//! into a **self-contained** SVG: no external scripts or stylesheets,
//! `<title>` tooltips for hover inspection in any browser. The
//! rendering is a pure function of the input —
//!
//! * frames sorted by span name at every level,
//! * colors derived from an FNV-1a hash of the frame name (the classic
//!   flamegraph warm palette, but stable across runs instead of
//!   random),
//! * coordinates printed with fixed two-decimal precision,
//!
//! — so the same trace renders to **byte-identical** SVG every time,
//! making the artifact diffable and safe to commit.

use crate::svg::{document_open, fnv1a, xml_escape};
use crate::trace::{CollapsedPath, TraceSummary};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a frame's width encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weighting {
    /// Self wall time (nanoseconds).
    Time,
    /// Self allocated bytes.
    Bytes,
}

impl Weighting {
    fn unit(self) -> &'static str {
        match self {
            Weighting::Time => "ns",
            Weighting::Bytes => "B",
        }
    }

    fn weight_of(self, path: &CollapsedPath) -> u64 {
        match self {
            // Same rounding as the collapsed-stack text export, so the
            // SVG and the `--collapsed` file agree on every weight.
            Weighting::Time => (path.self_s * 1e9).round().max(0.0) as u64,
            Weighting::Bytes => path.self_bytes,
        }
    }
}

/// One frame of the call tree; children are keyed (and therefore laid
/// out) by name, which is what makes sibling order deterministic.
#[derive(Debug, Default)]
struct Frame {
    self_weight: u64,
    children: BTreeMap<String, Frame>,
}

impl Frame {
    fn total(&self) -> u64 {
        self.self_weight
            + self.children.values().map(Frame::total).sum::<u64>()
    }

    fn depth(&self) -> usize {
        1 + self
            .children
            .values()
            .map(Frame::depth)
            .max()
            .unwrap_or(0)
    }
}

fn build_tree(collapsed: &[CollapsedPath], weighting: Weighting) -> Frame {
    let mut root = Frame::default();
    for path in collapsed {
        let weight = weighting.weight_of(path);
        if weight == 0 {
            continue;
        }
        let mut node = &mut root;
        for part in path.path.split(';') {
            node = node.children.entry(part.to_string()).or_default();
        }
        node.self_weight += weight;
    }
    root
}

/// The classic warm flamegraph palette (red-orange-yellow), with the
/// shade chosen by name hash instead of RNG.
fn color_of(name: &str) -> String {
    let hash = fnv1a(name);
    let r = 205 + (hash % 50) as u32;
    let g = 50 + ((hash >> 8) % 160) as u32;
    let b = ((hash >> 16) % 60) as u32;
    format!("rgb({r},{g},{b})")
}

const IMAGE_WIDTH: f64 = 1200.0;
const SIDE_MARGIN: f64 = 10.0;
const ROW_HEIGHT: f64 = 17.0;
const HEADER_HEIGHT: f64 = 38.0;
const FOOTER_HEIGHT: f64 = 12.0;
const FONT_SIZE: f64 = 11.0;
/// Frames narrower than this are dropped (standard flamegraph
/// behaviour — sub-pixel rects only bloat the file). Purely a function
/// of relative weights, so determinism is unaffected.
const MIN_FRAME_PX: f64 = 0.2;
/// Approximate glyph width used to decide how many characters of a
/// label fit inside its frame (monospace font).
const GLYPH_PX: f64 = 6.6;

struct SvgBuilder {
    out: String,
    weighting: Weighting,
    root_total: u64,
}

impl SvgBuilder {
    /// Emits `frame` (one rect + label) and recurses into children.
    /// `x` is the frame's left edge in px, `depth` its row (root = 0).
    fn frame(&mut self, name: Option<&str>, frame: &Frame, x: f64, depth: usize) {
        let total = frame.total();
        let width = total as f64 / self.root_total as f64 * (IMAGE_WIDTH - 2.0 * SIDE_MARGIN);
        if width < MIN_FRAME_PX {
            return;
        }
        let y = HEADER_HEIGHT + depth as f64 * ROW_HEIGHT;
        if let Some(name) = name {
            let escaped = xml_escape(name);
            let pct = total as f64 / self.root_total as f64 * 100.0;
            let _ = writeln!(
                self.out,
                r#"<g><title>{escaped}: {total} {} ({pct:.2}%)</title><rect x="{x:.2}" y="{y:.2}" width="{width:.2}" height="{:.2}" fill="{}" rx="1"/>"#,
                self.weighting.unit(),
                ROW_HEIGHT - 1.0,
                color_of(name),
            );
            let fit_chars = ((width - 4.0) / GLYPH_PX).floor();
            if fit_chars >= 3.0 {
                let label: String = if (name.chars().count() as f64) <= fit_chars {
                    name.to_string()
                } else {
                    let keep = (fit_chars as usize).saturating_sub(2);
                    let truncated: String = name.chars().take(keep).collect();
                    format!("{truncated}..")
                };
                let _ = writeln!(
                    self.out,
                    r##"<text x="{:.2}" y="{:.2}" font-size="{FONT_SIZE}" font-family="monospace" fill="#000">{}</text>"##,
                    x + 2.0,
                    y + ROW_HEIGHT - 5.0,
                    xml_escape(&label),
                );
            }
            let _ = writeln!(self.out, "</g>");
        }
        // Children are laid out left-to-right in name order; the
        // parent's self weight occupies the trailing gap implicitly.
        let mut child_x = x;
        let scale = (IMAGE_WIDTH - 2.0 * SIDE_MARGIN) / self.root_total as f64;
        let child_depth = if name.is_some() { depth + 1 } else { depth };
        for (child_name, child) in &frame.children {
            self.frame(Some(child_name), child, child_x, child_depth);
            child_x += child.total() as f64 * scale;
        }
    }
}

/// Renders the trace's collapsed stacks as a self-contained flamegraph
/// SVG. `weighting` picks the frame-width metric: self wall time
/// ([`Weighting::Time`]) or self allocated bytes
/// ([`Weighting::Bytes`]).
///
/// An input with no weighted stacks (empty trace, or bytes-weighting a
/// trace without allocator data) produces a valid SVG stating so
/// rather than failing — consistent with the trace subsystem's
/// degrade-don't-die policy.
pub fn render_svg(summary: &TraceSummary, weighting: Weighting) -> String {
    let root = build_tree(&summary.collapsed, weighting);
    let root_total = root.total();
    let rows = root.depth().saturating_sub(1).max(1);
    let height = HEADER_HEIGHT + rows as f64 * ROW_HEIGHT + FOOTER_HEIGHT;
    let mut out = document_open(IMAGE_WIDTH, height);
    let title = match weighting {
        Weighting::Time => "tsv3d flamegraph — self time",
        Weighting::Bytes => "tsv3d flamegraph — self allocated bytes",
    };
    let _ = writeln!(
        out,
        r##"<text x="{:.2}" y="24" font-size="15" font-family="monospace" fill="#000">{title}</text>"##,
        SIDE_MARGIN
    );
    if root_total == 0 {
        let _ = writeln!(
            out,
            r##"<text x="{:.2}" y="{:.2}" font-size="{FONT_SIZE}" font-family="monospace" fill="#666">no weighted stacks in this trace</text>"##,
            SIDE_MARGIN,
            HEADER_HEIGHT + ROW_HEIGHT - 5.0,
        );
    } else {
        let mut builder = SvgBuilder {
            out,
            weighting,
            root_total,
        };
        builder.frame(None, &root, SIDE_MARGIN, 0);
        out = builder.out;
        let _ = writeln!(
            out,
            r##"<text x="{:.2}" y="{:.2}" font-size="9" font-family="monospace" fill="#666">total: {root_total} {} · hover frames for exact weights</text>"##,
            SIDE_MARGIN,
            height - 3.0,
            weighting.unit(),
        );
    }
    let _ = writeln!(out, "</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::analyze_text;

    fn collapsed(path: &str, self_s: f64, self_bytes: u64) -> CollapsedPath {
        CollapsedPath {
            path: path.to_string(),
            self_s,
            self_bytes,
        }
    }

    fn summary_of(paths: Vec<CollapsedPath>) -> TraceSummary {
        TraceSummary {
            collapsed: paths,
            ..TraceSummary::default()
        }
    }

    #[test]
    fn svg_is_well_formed_and_names_every_frame() {
        let summary = summary_of(vec![
            collapsed("main", 0.1, 0),
            collapsed("main;solve", 0.6, 0),
            collapsed("main;report", 0.3, 0),
        ]);
        let svg = render_svg(&summary, Weighting::Time);
        assert!(svg.starts_with("<?xml version=\"1.0\""), "{svg}");
        assert!(svg.contains("\n<svg "), "{svg}");
        assert!(svg.trim_end().ends_with("</svg>"), "{svg}");
        for name in ["main", "solve", "report"] {
            assert!(svg.contains(&format!("<title>{name}:")), "missing {name}:\n{svg}");
        }
        assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
    }

    #[test]
    fn rendering_is_byte_identical_across_calls() {
        let summary = summary_of(vec![
            collapsed("a;b;c", 0.25, 100),
            collapsed("a;b", 0.5, 300),
            collapsed("a;z", 0.125, 44),
        ]);
        let first = render_svg(&summary, Weighting::Time);
        for _ in 0..3 {
            assert_eq!(render_svg(&summary, Weighting::Time), first);
        }
        // Input order of the collapsed list must not matter: the tree
        // is keyed by name.
        let mut reversed = summary_of(vec![
            collapsed("a;z", 0.125, 44),
            collapsed("a;b", 0.5, 300),
            collapsed("a;b;c", 0.25, 100),
        ]);
        assert_eq!(render_svg(&reversed, Weighting::Time), first);
        reversed.collapsed.swap(0, 1);
        assert_eq!(render_svg(&reversed, Weighting::Time), first);
    }

    #[test]
    fn colors_are_a_pure_function_of_the_name() {
        assert_eq!(color_of("core.anneal"), color_of("core.anneal"));
        assert_ne!(color_of("core.anneal"), color_of("core.bnb"));
        // Palette stays in the warm range.
        let c = color_of("anything");
        assert!(c.starts_with("rgb(2"), "red-dominant palette: {c}");
    }

    #[test]
    fn weighting_switches_between_time_and_bytes() {
        let summary = summary_of(vec![
            collapsed("fast_but_hungry", 0.001, 1_000_000),
            collapsed("slow_but_lean", 1.0, 8),
        ]);
        let by_time = render_svg(&summary, Weighting::Time);
        let by_bytes = render_svg(&summary, Weighting::Bytes);
        // Time weighting: slow frame dominates; bytes weighting: the
        // allocating frame dominates. Check via the reported totals.
        assert!(by_time.contains("slow_but_lean: 1000000000 ns"), "{by_time}");
        assert!(by_bytes.contains("fast_but_hungry: 1000000 B"), "{by_bytes}");
        assert!(by_time.contains("self time"));
        assert!(by_bytes.contains("self allocated bytes"));
    }

    #[test]
    fn empty_and_weightless_traces_render_a_valid_placeholder() {
        let empty = render_svg(&summary_of(Vec::new()), Weighting::Time);
        assert!(empty.contains("no weighted stacks"), "{empty}");
        assert!(empty.trim_end().ends_with("</svg>"));
        // A time-weighted trace bytes-rendered without allocator data.
        let timed = summary_of(vec![collapsed("a", 1.0, 0)]);
        let svg = render_svg(&timed, Weighting::Bytes);
        assert!(svg.contains("no weighted stacks"), "{svg}");
    }

    #[test]
    fn special_characters_in_span_names_are_escaped() {
        let summary = summary_of(vec![collapsed("a<b>&\"c\"", 1.0, 0)]);
        let svg = render_svg(&summary, Weighting::Time);
        assert!(svg.contains("a&lt;b&gt;&amp;&quot;c&quot;"), "{svg}");
        assert!(!svg.contains("<b>"), "raw name must not leak:\n{svg}");
    }

    #[test]
    fn renders_from_a_real_analyzed_trace() {
        let text = concat!(
            r#"{"t":0.9,"event":"span","name":"inner","seconds":0.4}"#, "\n",
            r#"{"t":1.0,"event":"span","name":"outer","seconds":1.0}"#, "\n",
        );
        let summary = analyze_text(text);
        let svg = render_svg(&summary, Weighting::Time);
        assert!(svg.contains("<title>outer:"), "{svg}");
        assert!(svg.contains("<title>inner:"), "{svg}");
    }

    #[test]
    fn deep_stacks_grow_the_image_height() {
        let shallow = render_svg(&summary_of(vec![collapsed("a", 1.0, 0)]), Weighting::Time);
        let deep = render_svg(
            &summary_of(vec![collapsed("a;b;c;d;e;f", 1.0, 0)]),
            Weighting::Time,
        );
        let height = |svg: &str| -> f64 {
            let start = svg.find("height=\"").unwrap() + 8;
            svg[start..svg[start..].find('"').unwrap() + start]
                .parse()
                .unwrap()
        };
        assert!(height(&deep) > height(&shallow));
    }
}
