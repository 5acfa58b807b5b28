package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// postRaw sends body bytes verbatim, for requests that are deliberately not
// well-formed JSON.
func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, raw
}

// TestMalformedInputNever500 feeds the endpoints byte streams that have, at
// one point or another, wedged or crashed some stage of the pipeline. The
// contract under test: any input is answered with a structured 4xx error
// document — never a 5xx, never a dropped connection.
func TestMalformedInputNever500(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	source := func(src string) []byte {
		b, err := json.Marshal(map[string]string{"source": src})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"binary junk", []byte{0x00, 0xff, 0x7f, 0xde, 0xad, 0xbe, 0xef}},
		{"not json", []byte("var x:\nx := 1\n")},
		{"truncated json", []byte(`{"source": "var x`)},
		{"empty body", nil},
		{"empty source", source("")},
		{"unknown field", []byte(`{"sauce": "skip\n"}`)},
		{"lex error", source("var x:\nx := $\n")},
		{"overflowing constant", source("var x:\nx := 4294967296\n")},
		{"out-of-range index", source("var v[4]:\nv[9] := 1\n")},
		{"negative index", source("var v[4]:\nv[-1] := 1\n")},
		{"giant vector", source("var v[99999999]:\nskip\n")},
		{"many large vectors", source("var a[1048576], b[1048576]:\nskip\n")},
		{"self-send", source("chan c:\nc ! 1\n")},
		{"self-receive", source("chan c:\nvar x:\nc ? x\n")},
		{"empty par", source("par\nskip\n")},
		{"bad indentation", source("seq\n   x := 1\n")},
		{"deep nesting", source("var x:\n" + strings.Repeat("seq\n", 200) + "x := 1\n")},
		{"huge message cache", []byte(`{"source": "var x:\nx := 1\n", "pes": 8, "params": {"MsgCacheEntries": 1073741824}}`)},
	}
	for _, endpoint := range []string{"/compile", "/run"} {
		for _, c := range cases {
			code, raw := postRaw(t, ts.URL+endpoint, c.body)
			if code < 400 || code >= 500 {
				t.Errorf("%s %s: status %d (%s), want 4xx", endpoint, c.name, code, raw)
				continue
			}
			var doc map[string]string
			if err := json.Unmarshal(raw, &doc); err != nil || doc["error"] == "" {
				t.Errorf("%s %s: body %q is not a structured error document", endpoint, c.name, raw)
			}
		}
	}
}

// TestWorkerPanicAnswers422 proves a panic on a pool worker is converted to
// a client error instead of crashing the process: the panicking request gets
// 422 and the service keeps serving afterwards.
func TestWorkerPanicAnswers422(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})

	v, err := svc.execute(t.Context(), func(context.Context) (any, error) {
		panic("synthetic fault")
	})
	if err == nil || !strings.Contains(err.Error(), "synthetic fault") {
		t.Fatalf("execute after panic: v=%v err=%v, want wrapped panic", v, err)
	}
	if got := toStatus(err); got != http.StatusUnprocessableEntity {
		t.Errorf("panic maps to status %d, want 422", got)
	}

	// The lone worker survived; real requests still flow.
	if code, raw := post(t, ts.URL+"/compile", compileRequest{Source: "var x:\nx := 1\n"}, nil); code != 200 {
		t.Errorf("compile after panic: %d %s", code, raw)
	}
}
