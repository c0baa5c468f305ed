//! The no-false-positive gauntlet: every pattern the passes hunt for,
//! hidden where a real compiler would never see code — string literals,
//! raw strings, comments, doc-comments.  The self-test asserts that *no*
//! pass produces a finding against this file.
//!
//! unsafe { no_safety_needed_in_doc_comments() };
//! x.lock().unwrap(); Ordering::SeqCst;

/// Doc comment decoy: `unsafe`, `.read().unwrap()`, `Ordering::Relaxed`,
/// panic!("nope").
pub fn strings_full_of_violations() -> Vec<String> {
    let a = "unsafe { transmute(x) } with no SAFETY comment".to_string();
    let b = "m.lock().unwrap() and rw.write().expect(\"poisoned\")".to_string();
    let c = r#"Ordering::SeqCst Ordering::Relaxed Ordering::AcqRel"#.to_string();
    let d = r##"x.lock().unwrap() inside a raw string with "quotes""##.to_string();
    let e = "panic! unwrap() expect() todo! unimplemented!".to_string();
    vec![a, b, c, d, e]
}

/* Block comment decoy, nested for good measure:
   /* unsafe { } .lock().unwrap() Ordering::Release */
   x.read().unwrap() panic!("still a comment")
*/
pub fn lifetimes_are_not_chars<'a>(x: &'a str) -> &'a str {
    // Labels parse as labels, not as unterminated char literals that would
    // swallow the rest of the file (where a decoy `unsafe` hides below).
    'outer: for _ in 0..1 {
        break 'outer;
    }
    let _tricky = '"'; // a char literal containing a quote
    let _escaped = '\''; // an escaped-quote char literal
    x
}

pub fn byte_strings_and_raw_identifiers() -> usize {
    let r#mod = b"unsafe .lock().unwrap() Ordering::SeqCst";
    let raw = br#"m.lock().unwrap() in "a byte raw string""#;
    r#mod.len() + raw.len()
}
