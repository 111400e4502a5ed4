package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"
)

// plainSolveRequest is SolveRequest without its decoder: what
// encoding/json decodes the request's small fields into.
type plainSolveRequest SolveRequest

// UnmarshalJSON decodes a solve request in one pass over data
// (DESIGN.md §7.6). It walks the top-level object and the graph object
// once, parses graph.edges in place with the EdgeList scanner, and hands
// every other member (n, options, wait, priority, deadline_ms and unknown
// keys) to encoding/json as one small object, so those keep its semantics:
// case-insensitive keys, the last of duplicate keys wins, null leaves a
// field as it was.
//
// It accepts exactly what json.Unmarshal accepts into a SolveRequest
// whose edges decode as an EdgeList, with the same values; in particular
// it refuses any data after the request object. A refused body is
// explained by encoding/json, so the error reads as it did when the
// handler decoded through json.Decoder (see explain).
func (r *SolveRequest) UnmarshalJSON(data []byte) error {
	if !r.decode(data) {
		return explain(data)
	}
	return nil
}

// decode is UnmarshalJSON's one pass. It reports whether data is a
// request; on false, r may be partly written.
func (r *SolveRequest) decode(data []byte) bool {
	i := skipSpace(data, 0)
	if bytes.HasPrefix(data[i:], []byte("null")) {
		return skipSpace(data, i+4) == len(data)
	}
	d := requestDecoder{data: data, rest: make([]byte, 0, 128)}
	i, ok := d.object(i, func(key []byte, i int) (int, bool) {
		if !keyIs(key, "graph") || i == len(data) || data[i] != '{' {
			return d.copyMember(key, i)
		}
		d.rest = append(append(d.rest, key...), ':')
		return d.object(i, func(key []byte, i int) (int, bool) {
			if !keyIs(key, "edges") {
				return d.copyMember(key, i)
			}
			edges, end, err := parseEdgeList(data, i)
			r.Graph.Edges = edges
			return end, err == nil
		})
	})
	if !ok || skipSpace(data, i) != len(data) {
		return false
	}
	return json.Unmarshal(d.rest, (*plainSolveRequest)(r)) == nil
}

// requestDecoder walks a request body, gathering in rest the members
// encoding/json decodes: every member but the graph's edges, as one
// object.
type requestDecoder struct {
	data, rest []byte
}

// object walks the JSON object at data[i:], copying its braces and the
// commas between copied members into rest. member handles one member:
// given its raw key and the index of its value, it returns the index just
// past the value. object returns the index just past the object.
func (d *requestDecoder) object(i int, member func(key []byte, i int) (int, bool)) (int, bool) {
	data := d.data
	if i == len(data) || data[i] != '{' {
		return i, false
	}
	d.rest = append(d.rest, '{')
	open := len(d.rest)
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		d.rest = append(d.rest, '}')
		return i + 1, true
	}
	for {
		if i == len(data) || data[i] != '"' {
			return i, false
		}
		end := skipString(data, i)
		key := data[i:end]
		i = skipSpace(data, end)
		if i == len(data) || data[i] != ':' {
			return i, false
		}
		at := len(d.rest)
		if at > open {
			d.rest = append(d.rest, ',')
		}
		var ok bool
		if i, ok = member(key, skipSpace(data, i+1)); !ok {
			return i, false
		}
		if len(d.rest) == at+1 {
			d.rest = d.rest[:at] // the member copied nothing: drop its comma
		}
		i = skipSpace(data, i)
		if i < len(data) && data[i] == ',' {
			i = skipSpace(data, i+1)
			continue
		}
		if i < len(data) && data[i] == '}' {
			d.rest = append(d.rest, '}')
			return i + 1, true
		}
		return i, false
	}
}

// copyMember copies the member of raw key key whose value starts at
// data[i] into rest, for encoding/json to decode and validate.
func (d *requestDecoder) copyMember(key []byte, i int) (int, bool) {
	end := skipValue(d.data, i)
	if end == i {
		return i, false
	}
	d.rest = append(append(d.rest, key...), ':')
	d.rest = append(d.rest, d.data[i:end]...)
	return end, true
}

// keyIs reports whether the raw JSON string key names the field name the
// way encoding/json matches keys to fields: after unescaping, equal or
// equal under Unicode case folding.
func keyIs(key []byte, name string) bool {
	k := key[1 : len(key)-1]
	if bytes.IndexByte(k, '\\') < 0 {
		return bytes.EqualFold(k, []byte(name))
	}
	var s string
	return json.Unmarshal(key, &s) == nil && strings.EqualFold(s, name)
}

// skipString returns the index just past the JSON string that starts at
// data[i], or len(data) when it does not end.
func skipString(data []byte, i int) int {
	for i++; i < len(data); i++ {
		switch data[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return len(data)
}

// skipValue returns the index just past the JSON value that starts at
// data[i], and i itself when none does. It only finds where the value
// ends: encoding/json validates it when it decodes the copy.
func skipValue(data []byte, i int) int {
	if i == len(data) {
		return i
	}
	switch data[i] {
	case '"':
		return skipString(data, i)
	case '{', '[':
		depth := 0
		for i < len(data) {
			switch data[i] {
			case '"':
				i = skipString(data, i)
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
			i++
		}
		return i
	}
	// A number or a literal runs to the next delimiter.
	for i < len(data) {
		switch data[i] {
		case ',', ':', '{', '}', '[', ']', '"', ' ', '\t', '\n', '\r':
			return i
		}
		i++
	}
	return i
}

// explain returns the error encoding/json gives for a body the one-pass
// decoder refused. json.Decoder decodes the body as the handler used to,
// so a 400's text stays what it was; json.Unmarshal then names data after
// the object, which json.Decoder does not read.
func explain(data []byte) error {
	// A method-free request type that reflect still names SolveRequest,
	// so a type error names the struct as it always did.
	type SolveRequest plainSolveRequest
	var v SolveRequest
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
		return err
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	return errors.New("malformed solve request")
}

// maxPresizeBytes caps the buffer ReadBody sizes from Content-Length
// before any byte arrives, so a false length reserves little.
const maxPresizeBytes = 1 << 20

// ReadBody reads the whole request body, at most maxBodyBytes of it, into
// one buffer sized from Content-Length when the client sent one. The
// spare byte lets the read that meets the end need no growth. The solve
// handler and the router's read both their request bodies through it.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	buf := make([]byte, 0, min(max(r.ContentLength, 512), maxPresizeBytes)+1)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// writeJob writes resp with status code exactly as
// json.NewEncoder(w).Encode(resp) would, trailing newline included. The
// result bytes go in as they are: they are json.Marshal output, compact
// and HTML-escaped already, which the Encoder would check by scanning them
// again.
func writeJob(w http.ResponseWriter, code int, resp JobResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(appendJobResponse(make([]byte, 0, 192+len(resp.Result)), resp))
}

// appendJobResponse appends the Encoder's bytes of r to b.
func appendJobResponse(b []byte, r JobResponse) []byte {
	b = append(b, `{"job_id":`...)
	b = appendString(b, r.JobID)
	b = append(b, `,"status":`...)
	b = appendString(b, string(r.Status))
	if r.Phase != "" {
		b = append(b, `,"phase":`...)
		b = appendString(b, r.Phase)
	}
	if r.RequestID != "" {
		b = append(b, `,"request_id":`...)
		b = appendString(b, r.RequestID)
	}
	if r.Cached {
		b = append(b, `,"cached":true`...)
	}
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, r.Error)
	}
	if r.ElapsedMS != 0 {
		b = append(b, `,"elapsed_ms":`...)
		b = appendFloat(b, r.ElapsedMS)
	}
	if len(r.Result) != 0 {
		b = append(b, `,"result":`...)
		b = append(b, r.Result...)
	}
	return append(b, "}\n"...)
}

// appendString appends s as encoding/json writes a string with HTML
// escaping on: <, > and & as \u003c, \u003e and \u0026, control bytes
// escaped, invalid UTF-8 as \ufffd, U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends a finite f as encoding/json writes a float64: like
// %g, but exponent form only below 1e-6 or from 1e21, with the exponent
// unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
