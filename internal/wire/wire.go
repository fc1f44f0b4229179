// Package wire scans the canonical /query and /predict request body in one
// pass, without encoding/json and without copying the model.
//
// The canonical body is what every client of this repository sends:
// json.Marshal of {model, platform, batch_size} with a base64 model. For that
// shape ScanRequest returns the model's base64 span inside the body, so the
// server can decode it straight into a pooled buffer and the router can hash
// it where it lies. Anything else is not an error here: ScanRequest reports
// ok=false and the caller runs its encoding/json decode over the same bytes,
// so every other body decodes, and fails, exactly as encoding/json would.
package wire

// maxBatchDigits bounds batch_size to 15 decimal digits: well inside int64,
// so the parse cannot overflow. The value is also checked against int, for
// 32-bit platforms.
const maxBatchDigits = 15

// ScanRequest parses a body of exactly this shape: a JSON object whose keys
// are "model", "platform" and "batch_size", in any order, each at most once,
// with JSON whitespace between any two tokens. String values must be
// printable ASCII (0x20–0x7E) without '"' or '\\'; batch_size must be a JSON
// integer of at most 15 digits. Bytes after the closing '}' are ignored, as
// json.Decoder.Decode ignores them. Missing keys read as zero values.
//
// model aliases body. Whenever ok is true, json.NewDecoder over the same
// bytes into server.Request succeeds with Model == string(model) and the same
// Platform and BatchSize (FuzzScanRequest holds the two together). Any other
// input — unknown or differently cased keys, duplicates, escapes, non-ASCII
// bytes, null, floats, exponents, leading zeros — returns ok=false.
func ScanRequest(body []byte) (model []byte, platform string, batch int, ok bool) {
	i := skipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return nil, "", 0, false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return nil, "", 0, true
	}
	var (
		plat []byte
		seen uint8
	)
	for {
		key, j, good := scanString(body, i)
		if !good {
			return nil, "", 0, false
		}
		i = skipSpace(body, j)
		if i >= len(body) || body[i] != ':' {
			return nil, "", 0, false
		}
		i = skipSpace(body, i+1)
		var bit uint8
		switch string(key) {
		case "model":
			bit = 1
			model, i, good = scanString(body, i)
		case "platform":
			bit = 2
			plat, i, good = scanString(body, i)
		case "batch_size":
			bit = 4
			batch, i, good = scanInt(body, i)
		}
		if bit == 0 || !good || seen&bit != 0 {
			return nil, "", 0, false
		}
		seen |= bit
		i = skipSpace(body, i)
		if i >= len(body) {
			return nil, "", 0, false
		}
		switch body[i] {
		case ',':
			i = skipSpace(body, i+1)
		case '}':
			return model, string(plat), batch, true
		default:
			return nil, "", 0, false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString reads a string token starting at b[i] == '"' and returns its
// contents (aliasing b) and the index just past the closing quote. It refuses
// every byte whose JSON decoding is not the byte itself.
func scanString(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	start := i + 1
	for j := start; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[start:j], j + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, i, false
		}
	}
	return nil, i, false
}

// scanInt reads a JSON integer starting at b[i]: an optional '-', then "0" or
// a nonzero digit followed by digits, at most maxBatchDigits in all. A
// following '.', 'e' or 'E' is left for the caller, which expects ',' or '}'
// there and so refuses it.
func scanInt(b []byte, i int) (int, int, bool) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	start := j
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	n := j - start
	if n == 0 || n > maxBatchDigits || (n > 1 && b[start] == '0') {
		return 0, i, false
	}
	var v int64
	for _, c := range b[start:j] {
		v = 10*v + int64(c-'0')
	}
	if start > i {
		v = -v
	}
	if int64(int(v)) != v {
		return 0, i, false
	}
	return int(v), j, true
}
