package clicklang

// Canonical parses src and renders it back in the parser's canonical
// form: one declaration per line (`name :: Class(raw-args);`) in
// declaration order, then one connection per line with explicit port
// indices (`from[p] -> [q]to;`). Whitespace, comments, chained
// connection sugar and implicit port indices all normalize away, so
// two sources with the same parse tree canonicalize to the same
// bytes — the property the controller's admission cache keys rely on
// (same semantics → same cache key).
//
// Canonical is idempotent: Canonical(Canonical(x)) == Canonical(x)
// for every parser-accepted x (anonymous elements are named
// deterministically by position during the first parse and survive
// re-parsing verbatim). FuzzCanonicalConfig enforces both properties.
func Canonical(src string) (string, error) {
	cfg, err := Parse(src)
	if err != nil {
		return "", err
	}
	return cfg.String(), nil
}
