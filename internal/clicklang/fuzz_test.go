package clicklang

import "testing"

// FuzzParse runs the parser over hostile inputs; with plain `go test`
// it exercises the seed corpus, and `go test -fuzz=FuzzParse` explores
// further. The invariant: never panic, and a successful parse must
// re-parse from its own String() rendering.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		";",
		"a :: Discard();",
		"FromNetfront() -> Discard();",
		"a :: IPFilter(allow udp, deny all); b :: FromNetfront(); b -> a;",
		"x[1] -> [2]y;",
		"a :: B(c(d,e), \"f,g\");",
		"/* comment */ a :: Discard(); // end",
		"a :: Discard( unterminated",
		"name :: Class(args) -> other :: Class2() -> third;",
		"\x00\x01\x02",
		"a::b();a->a;",
		"🎉 :: Discard();",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		cfg, err := Parse(src)
		if err != nil {
			return
		}
		if _, err := Parse(cfg.String()); err != nil {
			t.Fatalf("String() of a valid config does not re-parse: %v\noriginal: %q\nrendered: %q",
				err, src, cfg.String())
		}
	})
}

// FuzzSplitArgs checks SplitArgs never panics and never fabricates
// content longer than its input.
func FuzzSplitArgs(f *testing.F) {
	for _, s := range []string{"", "a,b", "f(x,y),z", `"a,b",c`, "((((", ",,,,", `"unterminated`} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		parts := SplitArgs(raw)
		total := 0
		for _, p := range parts {
			total += len(p)
		}
		if total > len(raw) {
			t.Fatalf("SplitArgs(%q) fabricated content: %q", raw, parts)
		}
	})
}

// FuzzCanonicalConfig asserts the properties the controller's
// admission cache builds on: canonicalization never panics on
// parser-accepted input, is idempotent (Canonical(Canonical(x)) ==
// Canonical(x) — semantically equal sources share one cache key), and
// its output always re-parses to the same canonical form.
func FuzzCanonicalConfig(f *testing.F) {
	seeds := []string{
		"",
		"a :: Discard();",
		"FromNetfront() -> Discard();",
		"FromNetfront() -> IPFilter(allow udp port 1500) -> ToNetfront();",
		"a :: IPFilter(allow udp, deny all); b :: FromNetfront(); b -> a;",
		"x[1] -> [2]y;",
		"a :: B(c(d,e), \"f,g\");",
		"/* comment */ a :: Discard(); // end",
		"name :: Class(args) -> other :: Class2() -> third;",
		"a::b();a->a;",
		// Whitespace/comment variants of the same graph must
		// canonicalize identically.
		"  a :: Discard() ;  ",
		"a /*x*/ :: Discard();",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c1, err := Canonical(src)
		if err != nil {
			// Not parser-accepted: nothing to guarantee beyond "no
			// panic", which reaching this line already proves.
			return
		}
		c2, err := Canonical(c1)
		if err != nil {
			t.Fatalf("canonical form does not re-canonicalize: %v\noriginal: %q\ncanonical: %q", err, src, c1)
		}
		if c1 != c2 {
			t.Fatalf("canonicalization is not idempotent:\noriginal: %q\nfirst:  %q\nsecond: %q", src, c1, c2)
		}
	})
}
