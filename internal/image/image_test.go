package image

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// testPayload builds a small but fully populated payload: model spec
// with tensor data, chip environment, compile configuration and one
// programmed tile.
func testPayload() *Payload {
	return &Payload{
		Model: ModelSpec{
			Name:    "m",
			Layers:  []LayerSpec{{Kind: "dense", Name: "fc", VTh: 1, HasB: false}},
			Tensors: []Vector{{0.5, -1.25, 3, 0}},
			Shapes:  [][]int{{2, 2}},
			Lambda:  []float64{1.5},
		},
		Chip:   ChipSpec{WMax: 1.5, HadNoise: true, NoiseFingerprint: 42},
		Config: SessionConfig{Mode: 1, Timesteps: 8, Seed: 9, SeedSet: true},
		Tiles: []TileState{{
			Rows: 2, Cols: 2, WMax: 1.5,
			SlotAC:  []int{0},
			Retired: []bool{false},
			ACs:     []ACState{{Index: 0, State: []byte{1, 2, 3}}},
		}},
	}
}

// encodeTestImage renders the test payload into wire bytes.
func encodeTestImage(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, testPayload()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	data := encodeTestImage(t)
	if err := Verify(data); err != nil {
		t.Fatalf("Verify on fresh image: %v", err)
	}
	p, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, testPayload()) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", p, testPayload())
	}
	pt, err := DecodeTrusted(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pt, p) {
		t.Fatal("DecodeTrusted disagrees with Decode on a valid image")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, b := encodeTestImage(t), encodeTestImage(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same payload differ")
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	data := encodeTestImage(t)

	for _, n := range []int{0, 7, headerLen - 1, headerLen + 3, len(data) - 1} {
		var fe *FormatError
		if _, err := Decode(bytes.NewReader(data[:n])); !errors.As(err, &fe) {
			t.Fatalf("truncated to %d: got %v, want *FormatError", n, err)
		}
	}

	badMagic := append([]byte(nil), data...)
	badMagic[0] = 'X'
	var fe *FormatError
	if _, err := Decode(bytes.NewReader(badMagic)); !errors.As(err, &fe) {
		t.Fatalf("bad magic: got %v, want *FormatError", err)
	}

	badVersion := append([]byte(nil), data...)
	badVersion[8]++
	if _, err := Decode(bytes.NewReader(badVersion)); !errors.As(err, &fe) {
		t.Fatalf("bad version: got %v, want *FormatError", err)
	}
	if err := Verify(badVersion); !errors.As(err, &fe) {
		t.Fatalf("Verify bad version: got %v, want *FormatError", err)
	}

	flipped := append([]byte(nil), data...)
	flipped[headerLen+2] ^= 0x10
	var ce *ChecksumError
	if _, err := Decode(bytes.NewReader(flipped)); !errors.As(err, &ce) {
		t.Fatalf("flipped payload: got %v, want *ChecksumError", err)
	}
	if err := Verify(flipped); !errors.As(err, &ce) {
		t.Fatalf("Verify flipped payload: got %v, want *ChecksumError", err)
	}
}

// TestDecodeRejectsVersion1 pins the format-2 cutover: images written
// by a version-1 build are refused with a typed *FormatError, never
// migrated.
func TestDecodeRejectsVersion1(t *testing.T) {
	if FormatVersion != 2 {
		t.Fatalf("FormatVersion = %d; this test pins the version-1 rejection of format 2", FormatVersion)
	}
	v1 := encodeTestImage(t)
	binary.LittleEndian.PutUint32(v1[8:12], 1)
	var fe *FormatError
	if _, err := Decode(bytes.NewReader(v1)); !errors.As(err, &fe) {
		t.Fatalf("Decode of a version-1 image: got %v, want *FormatError", err)
	}
	if err := Verify(v1); !errors.As(err, &fe) {
		t.Fatalf("Verify of a version-1 image: got %v, want *FormatError", err)
	}
	if _, err := DecodeTrusted(v1); !errors.As(err, &fe) {
		t.Fatalf("DecodeTrusted of a version-1 image: got %v, want *FormatError", err)
	}
}

func TestKeyDeterministicAndSensitive(t *testing.T) {
	p := testPayload()
	key := func(p *Payload) string {
		t.Helper()
		k, err := Key(&p.Model, &p.Chip, &p.Config)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := key(p)
	if key(testPayload()) != base {
		t.Fatal("equal inputs hash to different keys")
	}

	m := testPayload()
	m.Model.Tensors[0][1] = -1.26
	c := testPayload()
	c.Chip.NoiseFingerprint++
	cfg := testPayload()
	cfg.Config.Timesteps++
	for name, mut := range map[string]*Payload{"model": m, "chip": c, "config": cfg} {
		if key(mut) == base {
			t.Fatalf("changing the %s did not change the key", name)
		}
	}
}

func TestVectorCodec(t *testing.T) {
	v := Vector{1.5, -2.25, 0, 1e300}
	raw, err := v.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var got Vector
	if err := got.GobDecode(raw); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("vector round trip: %v != %v", got, v)
	}
	if err := got.GobDecode([]byte{1, 2, 3}); err == nil {
		t.Fatal("odd-length vector data accepted")
	}
}

func TestDecodeModelValidates(t *testing.T) {
	ok := testPayload().Model
	if _, err := DecodeModel(&ok); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	var fe *FormatError
	shape := testPayload().Model
	shape.Shapes[0] = []int{3, 2}
	if _, err := DecodeModel(&shape); !errors.As(err, &fe) {
		t.Fatalf("shape/data mismatch: got %v, want *FormatError", err)
	}

	kind := testPayload().Model
	kind.Layers[0].Kind = "warp"
	if _, err := DecodeModel(&kind); !errors.As(err, &fe) {
		t.Fatalf("unknown layer kind: got %v, want *FormatError", err)
	}

	extra := testPayload().Model
	extra.Tensors = append(extra.Tensors, Vector{1})
	extra.Shapes = append(extra.Shapes, []int{1})
	if _, err := DecodeModel(&extra); !errors.As(err, &fe) {
		t.Fatalf("unconsumed tensor: got %v, want *FormatError", err)
	}
}
