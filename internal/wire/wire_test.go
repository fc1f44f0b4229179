package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math/rand"
	"testing"

	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
)

// request has server.Request's JSON tags; the scanner is held equal to
// encoding/json decoding into it.
type request struct {
	Model     string `json:"model"`
	Platform  string `json:"platform"`
	BatchSize int    `json:"batch_size,omitempty"`
}

// zooBodies returns canonical bodies as the clients send them: json.Marshal
// of base64-encoded zoo models, with and without a batch override.
func zooBodies(tb testing.TB, n int) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	var out [][]byte
	for i := 0; i < n; i++ {
		g, err := models.Variant(models.Families[i%len(models.Families)], rng, 1)
		if err != nil {
			tb.Fatal(err)
		}
		raw, err := g.EncodeBinary()
		if err != nil {
			tb.Fatal(err)
		}
		body, err := json.Marshal(request{
			Model:     base64.StdEncoding.EncodeToString(raw),
			Platform:  hwsim.DatasetPlatform,
			BatchSize: i % 3 * 4,
		})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, body)
	}
	return out
}

// TestScanRequestCases names, per body, whether the scanner takes it or
// leaves it to encoding/json, and checks the fields it returns.
func TestScanRequestCases(t *testing.T) {
	cases := []struct {
		name     string
		body     string
		ok       bool
		model    string
		platform string
		batch    int
	}{
		{"go marshal", `{"model":"TkxRUA==","platform":"p","batch_size":8}`, true, "TkxRUA==", "p", 8},
		{"no batch", `{"model":"TkxRUA==","platform":"p"}`, true, "TkxRUA==", "p", 0},
		{"python spacing", `{"model": "TkxRUA==", "platform": "p", "batch_size": 4}`, true, "TkxRUA==", "p", 4},
		{"whitespace everywhere", " \t\r\n{ \"platform\" :\n\"p\" , \"model\"\t:\"m\" }", true, "m", "p", 0},
		{"permuted keys", `{"batch_size":2,"platform":"p","model":"m"}`, true, "m", "p", 2},
		{"empty object", `{}`, true, "", "", 0},
		{"empty strings", `{"model":"","platform":""}`, true, "", "", 0},
		{"negative batch", `{"model":"m","batch_size":-3}`, true, "m", "", -3},
		{"zero", `{"batch_size":0}`, true, "", "", 0},
		{"minus zero", `{"batch_size":-0}`, true, "", "", 0},
		{"15 digits", `{"batch_size":999999999999999}`, true, "", "", 999999999999999},
		{"trailing bytes", `{"model":"m","platform":"p"} garbage{`, true, "m", "p", 0},
		{"second value", `{"model":"m"}{"model":"n"}`, true, "m", "", 0},

		{"escaped slash", `{"model":"a\/b","platform":"p"}`, false, "", "", 0},
		{"unicode escape", `{"model":"m","platform":"\u0041"}`, false, "", "", 0},
		{"capitalised key", `{"Model":"m","platform":"p"}`, false, "", "", 0},
		{"duplicate key", `{"model":"m","model":"n"}`, false, "", "", 0},
		{"unknown key", `{"model":"m","platform":"p","extra":1}`, false, "", "", 0},
		{"null", `{"model":null,"platform":"p"}`, false, "", "", 0},
		{"float", `{"batch_size":1.0}`, false, "", "", 0},
		{"exponent", `{"batch_size":1e2}`, false, "", "", 0},
		{"leading zero", `{"batch_size":01}`, false, "", "", 0},
		{"20 digits", `{"batch_size":12345678901234567890}`, false, "", "", 0},
		{"16 digits", `{"batch_size":1000000000000000}`, false, "", "", 0},
		{"string batch", `{"batch_size":"4"}`, false, "", "", 0},
		{"bom", "\xef\xbb\xbf{\"model\":\"m\"}", false, "", "", 0},
		{"non-ascii", "{\"model\":\"m\",\"platform\":\"p\xc3\xa9\"}", false, "", "", 0},
		{"raw control byte", "{\"model\":\"m\x01\"}", false, "", "", 0},
		{"raw tab in string", "{\"model\":\"m\t\"}", false, "", "", 0},
		{"trailing comma", `{"model":"m",}`, false, "", "", 0},
		{"missing colon", `{"model" "m"}`, false, "", "", 0},
		{"unterminated", `{"model":"m"`, false, "", "", 0},
		{"unterminated string", `{"model":"m`, false, "", "", 0},
		{"array", `["model"]`, false, "", "", 0},
		{"empty body", ``, false, "", "", 0},
		{"bare minus", `{"batch_size":-}`, false, "", "", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model, platform, batch, ok := ScanRequest([]byte(tc.body))
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if !ok {
				return
			}
			if string(model) != tc.model || platform != tc.platform || batch != tc.batch {
				t.Fatalf("got (%q, %q, %d), want (%q, %q, %d)", model, platform, batch, tc.model, tc.platform, tc.batch)
			}
			checkAgainstJSON(t, []byte(tc.body))
		})
	}
	for i, body := range zooBodies(t, 24) {
		if _, _, _, ok := ScanRequest(body); !ok {
			t.Fatalf("zoo body %d fell back to encoding/json", i)
		}
		checkAgainstJSON(t, body)
	}
}

// TestScanRequestAliasesBody: the model span is the body's own bytes, not a
// copy; the server decodes base64 from it and the router hashes it in place.
func TestScanRequestAliasesBody(t *testing.T) {
	body := []byte(`{"platform":"p","model":"TkxRUA=="}`)
	model, _, _, ok := ScanRequest(body)
	if !ok || len(model) == 0 || &model[0] != &body[bytes.Index(body, []byte("TkxRUA=="))] {
		t.Fatalf("model span %q does not alias the body", model)
	}
}

// checkAgainstJSON is the differential property: whenever the scanner
// accepts a body, encoding/json's decoder, as the server runs it, accepts it
// too and reads the same three fields.
func checkAgainstJSON(t *testing.T, body []byte) {
	t.Helper()
	model, platform, batch, ok := ScanRequest(body)
	if !ok {
		return
	}
	var req request
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json refused it: %v", body, err)
	}
	if req.Model != string(model) || req.Platform != platform || req.BatchSize != batch {
		t.Fatalf("scanner read (%q, %q, %d), encoding/json (%q, %q, %d) from %q",
			model, platform, batch, req.Model, req.Platform, req.BatchSize, body)
	}
}

func FuzzScanRequest(f *testing.F) {
	for _, body := range zooBodies(f, 4) {
		f.Add(body)
		f.Add(bytes.ReplaceAll(body, []byte(`":`), []byte(`": `)))
	}
	for _, s := range []string{
		`{"model": "TkxRUA==", "platform": "p", "batch_size": 4}`,
		`{"batch_size":2,"platform":"p","model":"m"}`,
		`{"model":"a\/b","platform":"p"}`,
		`{"model":"m","platform":"\u0041"}`,
		`{"Model":"m","platform":"p"}`,
		`{"model":"m","model":"n"}`,
		`{"model":"m","extra":1}`,
		`{"model":null}`,
		`{"batch_size":1.0}`,
		`{"batch_size":1e2}`,
		`{"batch_size":01}`,
		`{"batch_size":-0}`,
		`{"batch_size":12345678901234567890}`,
		`{"model":"m"} trailing`,
		"\xef\xbb\xbf{\"model\":\"m\"}",
		"{\"platform\":\"p\xc3\xa9\"}",
		"{\"model\":\"m\x01\"}",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstJSON(t, body)
	})
}
