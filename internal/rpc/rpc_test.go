package rpc

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"lauberhorn/internal/sim"
)

func TestEncodeDecodeRequest(t *testing.T) {
	body := []byte("payload-bytes")
	b := EncodeRequest(7, 3, 99, FlagOneWay, body)
	if len(b) != HeaderLen+len(body) {
		t.Fatalf("encoded len %d", len(b))
	}
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsRequest() || m.Service != 7 || m.Method != 3 || m.ID != 99 {
		t.Fatalf("decoded %+v", m.Header)
	}
	if m.Flags != FlagOneWay {
		t.Errorf("flags %d", m.Flags)
	}
	if !bytes.Equal(m.Body, body) {
		t.Errorf("body %q", m.Body)
	}
	if m.Size() != len(b) {
		t.Errorf("Size %d, want %d", m.Size(), len(b))
	}
}

func TestEncodeDecodeResponse(t *testing.T) {
	b := EncodeResponse(1, 2, 55, StatusOverloaded, nil)
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.IsRequest() || m.Status != StatusOverloaded || m.ID != 55 {
		t.Fatalf("decoded %+v", m.Header)
	}
	if len(m.Body) != 0 {
		t.Errorf("body %v", m.Body)
	}
}

func TestDecodeTrailingPaddingTolerated(t *testing.T) {
	// Ethernet pads short frames; the decoder must use BodyLen, not len(b).
	b := EncodeRequest(1, 1, 1, 0, []byte("ab"))
	padded := append(b, make([]byte, 20)...)
	m, err := Decode(padded)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Body) != "ab" {
		t.Fatalf("body %q", m.Body)
	}
}

func TestDecodeErrors(t *testing.T) {
	good := EncodeRequest(1, 1, 1, 0, []byte("xyz"))

	short := good[:HeaderLen-1]
	if _, err := Decode(short); !errors.Is(err, ErrShort) {
		t.Errorf("short: %v", err)
	}

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 0
	if _, err := Decode(badMagic); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic: %v", err)
	}

	badVer := append([]byte(nil), good...)
	badVer[2] = 9
	if _, err := Decode(badVer); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version: %v", err)
	}

	badKind := append([]byte(nil), good...)
	badKind[3] = 9
	if _, err := Decode(badKind); !errors.Is(err, ErrBadKind) {
		t.Errorf("kind: %v", err)
	}

	truncated := good[:len(good)-1]
	if _, err := Decode(truncated); !errors.Is(err, ErrBadBody) {
		t.Errorf("truncated body: %v", err)
	}
}

func TestEncodeHugeBodyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for >64KiB body")
		}
	}()
	Encode(Header{Kind: KindRequest}, make([]byte, 70000))
}

func TestMessageString(t *testing.T) {
	m, _ := Decode(EncodeRequest(4, 2, 8, 0, []byte("hi")))
	if !strings.Contains(m.String(), "svc=4") {
		t.Errorf("String %q", m.String())
	}
	r, _ := Decode(EncodeResponse(4, 2, 8, 0, nil))
	if !strings.Contains(r.String(), "resp") {
		t.Errorf("String %q", r.String())
	}
}

func TestArgWriterReader(t *testing.T) {
	w := NewArgWriter(64)
	w.PutUint64(12345)
	w.PutInt64(-99)
	w.PutBytes([]byte{1, 2, 3})
	w.PutString("enzian")
	body := w.Bytes()
	if w.Len() != len(body) {
		t.Fatal("Len mismatch")
	}

	r := NewArgReader(body)
	if v := r.Uint64(); v != 12345 {
		t.Errorf("Uint64 = %d", v)
	}
	if v := r.Int64(); v != -99 {
		t.Errorf("Int64 = %d", v)
	}
	if b := r.Bytes(); !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", b)
	}
	if s := r.String(); s != "enzian" {
		t.Errorf("String = %q", s)
	}
	if r.Err() != nil {
		t.Fatalf("unexpected err: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("remaining %d", r.Remaining())
	}
}

func TestArgReaderUnderflow(t *testing.T) {
	r := NewArgReader([]byte{})
	if r.Uint64() != 0 || r.Err() == nil {
		t.Fatal("underflow not detected")
	}
	// Errors are sticky.
	if r.Int64() != 0 || r.Bytes() != nil || r.String() != "" {
		t.Fatal("sticky error not honoured")
	}

	// Length prefix longer than data.
	w := NewArgWriter(8)
	w.PutUint64(100) // claims 100 bytes follow
	r2 := NewArgReader(w.Bytes())
	if r2.Bytes() != nil || r2.Err() == nil {
		t.Fatal("over-long length prefix not detected")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	if reg.Len() != 0 {
		t.Fatal("new registry not empty")
	}
	svc := &ServiceDesc{ID: 3, Name: "echo", Methods: []MethodDesc{
		{ID: 1, Name: "do", CodeAddr: 0x4000},
		{ID: 7, Name: "other"},
	}}
	reg.Register(svc)
	reg.Register(&ServiceDesc{ID: 1, Name: "a"})
	reg.Register(&ServiceDesc{ID: 2, Name: "b"})

	if got := reg.Lookup(3); got != svc {
		t.Fatal("Lookup failed")
	}
	if reg.Lookup(99) != nil {
		t.Fatal("Lookup of missing service returned non-nil")
	}
	if m := svc.Method(7); m == nil || m.Name != "other" {
		t.Fatal("Method lookup failed")
	}
	if svc.Method(42) != nil {
		t.Fatal("missing method returned non-nil")
	}

	all := reg.Services()
	if len(all) != 3 || all[0].ID != 1 || all[1].ID != 2 || all[2].ID != 3 {
		t.Fatalf("Services not sorted: %v", all)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Register(&ServiceDesc{ID: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate register did not panic")
		}
	}()
	reg.Register(&ServiceDesc{ID: 1})
}

func TestRegistryNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil register did not panic")
		}
	}()
	NewRegistry().Register(nil)
}

func TestCostModel(t *testing.T) {
	c := DefaultCostModel()
	if c.Unmarshal(0) != c.UnmarshalFixed {
		t.Error("zero-byte unmarshal should cost the fixed overhead")
	}
	if c.Unmarshal(100) != c.UnmarshalFixed+100*c.UnmarshalPerByte {
		t.Error("unmarshal per-byte cost wrong")
	}
	if c.Marshal(64) != c.MarshalFixed+64*c.MarshalPerByte {
		t.Error("marshal per-byte cost wrong")
	}
	if c.Unmarshal(1000) <= c.Unmarshal(10) {
		t.Error("unmarshal not monotone in size")
	}
	if c.DispatchLookup <= 0 || c.DispatchLookup > sim.Microsecond {
		t.Errorf("dispatch lookup cost implausible: %v", c.DispatchLookup)
	}
}

// Property: header fields round-trip for arbitrary values.
func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(service uint32, method uint16, id uint64, flags uint16, status uint16, body []byte) bool {
		if len(body) > 60000 {
			body = body[:60000]
		}
		b := Encode(Header{Kind: KindResponse, Service: service, Method: method,
			ID: id, Flags: flags, Status: status}, body)
		m, err := Decode(b)
		if err != nil {
			return false
		}
		return m.Service == service && m.Method == method && m.ID == id &&
			m.Flags == flags && m.Status == status && bytes.Equal(m.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary sequences of writer ops round-trip through the reader.
func TestArgsRoundTripProperty(t *testing.T) {
	f := func(us []uint64, ss []int64, bs [][]byte) bool {
		w := NewArgWriter(16)
		for _, u := range us {
			w.PutUint64(u)
		}
		for _, s := range ss {
			w.PutInt64(s)
		}
		for _, b := range bs {
			w.PutBytes(b)
		}
		r := NewArgReader(w.Bytes())
		for _, u := range us {
			if r.Uint64() != u {
				return false
			}
		}
		for _, s := range ss {
			if r.Int64() != s {
				return false
			}
		}
		for _, b := range bs {
			if !bytes.Equal(r.Bytes(), b) {
				return false
			}
		}
		return r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeInto feeds arbitrary bytes to the decoder, which must never
// panic and, when it accepts them, must return a body that re-encodes to
// the accepted prefix. It then uses the bytes as a body: EncodeRequest or
// EncodeResponse followed by DecodeInto must round-trip every header
// field and the body.
func FuzzDecodeInto(f *testing.F) {
	for _, n := range []int{0, 1, 64, 4096} {
		body := bytes.Repeat([]byte{0xa5}, n)
		f.Add(EncodeRequest(7, 3, uint64(n), FlagOneWay, body), uint32(7), uint16(3), uint64(n), uint16(FlagOneWay), false)
		f.Add(EncodeResponse(9, 1, ^uint64(0), StatusOverloaded, body), uint32(9), uint16(1), ^uint64(0), uint16(StatusOverloaded), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, service uint32, method uint16, id uint64, word uint16, resp bool) {
		var m Message
		if err := DecodeInto(data, &m); err == nil {
			if int(m.BodyLen) != len(m.Body) {
				t.Fatalf("BodyLen %d, body %d bytes", m.BodyLen, len(m.Body))
			}
			if got, want := Encode(m.Header, m.Body), data[:m.Size()]; !bytes.Equal(got, want) {
				t.Fatalf("re-encoding decoded message: got % x, want % x", got, want)
			}
		}

		body := data
		if len(body) > 0xffff {
			body = body[:0xffff]
		}
		want := Header{Kind: KindRequest, Service: service, Method: method, ID: id, Flags: word, BodyLen: uint16(len(body))}
		b := EncodeRequest(service, method, id, word, body)
		if resp {
			want.Kind, want.Flags, want.Status = KindResponse, 0, word
			b = EncodeResponse(service, method, id, word, body)
		}
		if err := DecodeInto(b, &m); err != nil {
			t.Fatalf("decode of encoded message: %v", err)
		}
		if m.Header != want {
			t.Fatalf("header: got %+v, want %+v", m.Header, want)
		}
		if !bytes.Equal(m.Body, body) {
			t.Fatalf("body mismatch: got %d bytes, want %d", len(m.Body), len(body))
		}
	})
}
