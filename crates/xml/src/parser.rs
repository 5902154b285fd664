//! A small, dependency-free XML parser.
//!
//! [`parse_document`] builds the arena from the event scanner in
//! [`crate::stream`]; this module holds what that scanner relies on: the
//! error type, entity decoding, and the nesting cap.
//!
//! Supports the subset of XML that the workload generators and tests emit:
//! elements, attributes, character data, CDATA sections, comments, an
//! optional XML declaration, and the five predefined entities. Namespaces
//! are treated as part of the name (single-namespace assumption, see
//! DESIGN.md §6).

use crate::model::Document;
use crate::stream::{stream_document, DocumentSink};
use crate::Vocabulary;
use std::fmt;

/// Parse error with byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for XmlError {}

/// Parses an XML document, interning names and rooted paths in `vocab`.
///
/// This is [`stream_document`] driving a [`DocumentSink`]: the one parser
/// in the crate, whether a caller wants the arena or only the events.
pub fn parse_document(input: &str, vocab: &mut Vocabulary) -> Result<Document, XmlError> {
    let mut sink = DocumentSink::new();
    stream_document(input, vocab, &mut sink)?;
    sink.into_document()
        .map_err(|message| XmlError { offset: 0, message })
}

pub(crate) fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Maximum element nesting depth. Real document collections nest a few
/// dozen levels; a hostile chain of thousands of open tags would make the
/// rooted-path dictionary quadratic (each node's path copies its parent's),
/// so the parser rejects absurd depth with a typed error instead.
pub const MAX_XML_DEPTH: usize = 512;

/// Longest accepted entity reference body (between `&` and `;`). The
/// longest legitimate reference is a hex character reference like
/// `&#x10FFFF;`; the cap keeps a stray `&` in hostile input from scanning
/// (and echoing back) unbounded text while hunting for a `;`.
const MAX_ENTITY_LEN: usize = 32;

/// Validates a character reference against the XML 1.0 `Char` production:
/// C0 controls other than tab, newline, and carriage return are not XML
/// characters, so `&#0;`, `&#x1;`, … must be rejected rather than smuggled
/// into path values. Surrogates and out-of-range code points are already
/// rejected by `char::from_u32`; the non-characters U+FFFE/U+FFFF are
/// excluded here as well.
fn char_ref(code: u32, entity: &str) -> Result<char, String> {
    let c = char::from_u32(code).ok_or_else(|| format!("invalid code point in `&{entity};`"))?;
    let is_forbidden_control = c < '\u{20}' && !matches!(c, '\t' | '\n' | '\r');
    if is_forbidden_control || matches!(c, '\u{FFFE}' | '\u{FFFF}') {
        return Err(format!(
            "character reference `&{entity};` is not an XML character"
        ));
    }
    Ok(c)
}

/// Decodes the five predefined XML entities plus decimal/hex character
/// references.
pub fn decode_entities(s: &str) -> Result<String, String> {
    if !s.contains('&') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        // Byte search: `;` is ASCII, so this never splits a code point,
        // even when the window cuts through a multi-byte character.
        let window = &rest.as_bytes()[..rest.len().min(MAX_ENTITY_LEN + 2)];
        let semi = window
            .iter()
            .position(|&b| b == b';')
            .ok_or_else(|| "unterminated or overlong entity reference".to_string())?;
        let entity = &rest[1..semi];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| format!("bad character reference `&{entity};`"))?;
                out.push(char_ref(code, entity)?);
            }
            _ if entity.starts_with('#') => {
                let code = entity[1..]
                    .parse::<u32>()
                    .map_err(|_| format!("bad character reference `&{entity};`"))?;
                out.push(char_ref(code, entity)?);
            }
            _ => return Err(format!("unknown entity `&{entity};`")),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> (Document, Vocabulary) {
        let mut vocab = Vocabulary::new();
        let doc = parse_document(s, &mut vocab).expect("parse failed");
        (doc, vocab)
    }

    #[test]
    fn parses_simple_document() {
        let (doc, vocab) = parse("<Security><Symbol>IBM</Symbol><Yield>4.5</Yield></Security>");
        assert_eq!(doc.len(), 3);
        let sym = vocab.lookup_name("Symbol").unwrap();
        assert_eq!(doc.value_at(&[sym]).unwrap().as_str(), "IBM");
        let yld = vocab.lookup_name("Yield").unwrap();
        assert_eq!(doc.value_at(&[yld]).unwrap().as_num(), Some(4.5));
    }

    #[test]
    fn parses_attributes_as_leaf_children() {
        let (doc, vocab) = parse(r#"<Order id="7"><Total>10</Total></Order>"#);
        let id = vocab.lookup_name("id").unwrap();
        assert_eq!(doc.value_at(&[id]).unwrap().as_num(), Some(7.0));
        assert_eq!(doc.node(doc.root()).children.len(), 2);
    }

    #[test]
    fn self_closing_elements() {
        let (doc, _) = parse("<a><b/><c/></a>");
        assert_eq!(doc.len(), 3);
    }

    #[test]
    fn declaration_comments_and_cdata() {
        let (doc, vocab) =
            parse("<?xml version=\"1.0\"?><!-- hi --><a><!-- inner --><b><![CDATA[x<y]]></b></a>");
        let b = vocab.lookup_name("b").unwrap();
        assert_eq!(doc.value_at(&[b]).unwrap().as_str(), "x<y");
    }

    #[test]
    fn decodes_entities() {
        let (doc, vocab) = parse("<a><b>&lt;tag&gt; &amp; &#65;&#x42;</b></a>");
        let b = vocab.lookup_name("b").unwrap();
        assert_eq!(doc.value_at(&[b]).unwrap().as_str(), "<tag> & AB");
    }

    #[test]
    fn whitespace_only_text_is_not_a_value() {
        let (doc, _) = parse("<a>\n  <b>1</b>\n</a>");
        assert!(doc.node(doc.root()).value.is_none());
    }

    #[test]
    fn mismatched_tags_error() {
        let mut vocab = Vocabulary::new();
        let err = parse_document("<a><b></a></b>", &mut vocab).unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
    }

    #[test]
    fn trailing_garbage_errors() {
        let mut vocab = Vocabulary::new();
        assert!(parse_document("<a/>junk", &mut vocab).is_err());
    }

    #[test]
    fn multiple_roots_error() {
        let mut vocab = Vocabulary::new();
        assert!(parse_document("<a/><b/>", &mut vocab).is_err());
    }

    #[test]
    fn unterminated_document_errors() {
        let mut vocab = Vocabulary::new();
        assert!(parse_document("<a><b>", &mut vocab).is_err());
        assert!(parse_document("<a attr=\"x>", &mut vocab).is_err());
    }

    #[test]
    fn doctype_is_skipped() {
        let (doc, _) = parse("<!DOCTYPE a><a><b>1</b></a>");
        assert_eq!(doc.len(), 2);
    }

    #[test]
    fn mixed_content_keeps_structure_and_drops_stray_text() {
        // Mixed content is outside the indexable subset; we keep the element
        // structure and drop interleaved text (documented simplification).
        let (doc, _) = parse("<a>hello <b>1</b> world</a>");
        assert_eq!(doc.len(), 2);
        assert!(doc.node(doc.root()).value.is_none());
    }

    #[test]
    fn overlong_entity_reference_is_rejected_without_scanning() {
        // A stray `&` followed by a long run of text must not be treated as
        // a giant entity name (nor echoed back verbatim in the error).
        let body = "x".repeat(10_000);
        let err = decode_entities(&format!("&{body};")).unwrap_err();
        assert!(err.contains("overlong"), "{err}");
        assert!(
            err.len() < 200,
            "error echoes hostile input: {} bytes",
            err.len()
        );
        // Same through the document parser.
        let mut vocab = Vocabulary::new();
        assert!(parse_document(&format!("<a>&{body};</a>"), &mut vocab).is_err());
    }

    #[test]
    fn unterminated_entity_reference_errors() {
        assert!(decode_entities("tail &amp").is_err());
        assert!(decode_entities("&").is_err());
    }

    #[test]
    fn cdata_passes_ampersands_and_references_verbatim() {
        // CDATA content must NOT be routed through entity decoding: a
        // literal `&`, a stray `&foo`, or a `&#` inside `<![CDATA[...]]>`
        // is plain character data, not a reference.
        let (doc, vocab) = parse("<a><b><![CDATA[x & y &foo &#0; &# z]]></b></a>");
        let b = vocab.lookup_name("b").unwrap();
        assert_eq!(doc.value_at(&[b]).unwrap().as_str(), "x & y &foo &#0; &# z");
        // Mixed CDATA + text: only the text part is decoded.
        let (doc, vocab) = parse("<a><b><![CDATA[&amp;]]>&amp;</b></a>");
        let b = vocab.lookup_name("b").unwrap();
        assert_eq!(doc.value_at(&[b]).unwrap().as_str(), "&amp;&");
    }

    #[test]
    fn control_character_references_are_rejected() {
        // NUL and other C0 controls are not XML characters (Char
        // production); only tab, newline, and carriage return are allowed.
        for bad in ["&#0;", "&#x0;", "&#1;", "&#x1F;", "&#8;", "&#11;"] {
            let err = decode_entities(bad).unwrap_err();
            assert!(err.contains("not an XML character"), "{bad}: {err}");
        }
        assert_eq!(decode_entities("&#9;&#10;&#13;").unwrap(), "\t\n\r");
        // Non-characters U+FFFE/U+FFFF are rejected too.
        assert!(decode_entities("&#xFFFE;").is_err());
        assert!(decode_entities("&#xFFFF;").is_err());
        assert_eq!(decode_entities("&#xFFFD;").unwrap(), "\u{FFFD}");
        // Same through the document parser, in text and attribute values.
        let mut vocab = Vocabulary::new();
        assert!(parse_document("<a>&#0;</a>", &mut vocab).is_err());
        assert!(parse_document("<a x=\"&#x1;\"/>", &mut vocab).is_err());
    }

    #[test]
    fn hostile_character_references_are_rejected() {
        // Surrogate code point.
        assert!(decode_entities("&#xD800;").is_err());
        // Beyond the Unicode range.
        assert!(decode_entities("&#x110000;").is_err());
        assert!(decode_entities("&#4294967296;").is_err());
        // Garbage digits.
        assert!(decode_entities("&#xZZ;").is_err());
        assert!(decode_entities("&#;").is_err());
        // The maximum legitimate reference still decodes.
        assert_eq!(decode_entities("&#x10FFFF;").unwrap(), "\u{10FFFF}");
    }

    #[test]
    fn multibyte_text_near_entity_cap_does_not_split_code_points() {
        // A multi-byte character straddling the scan window must not panic.
        let s = format!("&{}é;", "e".repeat(31));
        assert!(decode_entities(&s).is_err());
        let ok = format!("{}&amp;tail", "é".repeat(40));
        assert!(decode_entities(&ok).unwrap().contains('&'));
    }

    fn nested(depth: usize) -> String {
        let mut s = String::new();
        for _ in 0..depth {
            s.push_str("<a>");
        }
        s.push('1');
        for _ in 0..depth {
            s.push_str("</a>");
        }
        s
    }

    #[test]
    fn nesting_depth_is_capped_with_a_typed_error() {
        let mut vocab = Vocabulary::new();
        // Within the cap: parses fine (the parser is iterative, so this is
        // bounded by MAX_XML_DEPTH, not the call stack).
        let doc = parse_document(&nested(MAX_XML_DEPTH), &mut vocab).unwrap();
        assert_eq!(doc.len(), MAX_XML_DEPTH);
        // One past the cap: typed error, no panic, no quadratic blow-up.
        let err = parse_document(&nested(MAX_XML_DEPTH + 1), &mut vocab).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }
}
