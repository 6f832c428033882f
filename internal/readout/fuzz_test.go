package readout

import (
	"reflect"
	"testing"
)

// FuzzDecodeDiscriminator exercises the discriminator decoder, which reads
// models saved by other processes, with arbitrary input: it must reject the
// bytes or return a model that classifies into 0 or 1 and survives an
// encode/decode round trip unchanged.
func FuzzDecodeDiscriminator(f *testing.F) {
	for _, d := range []Discriminator{
		&Centroid{Mean0: IQ{I: -1, Q: 0.5}, Mean1: IQ{I: 1, Q: -0.25}},
		&Linear{WI: 0.8, WQ: -1.5e-3, Bias: 2},
	} {
		data, err := EncodeDiscriminator(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{`{"kind":"linear","data":null}`, `{"kind":"quadratic","data":{}}`, `{}`, `not json`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDiscriminator(data)
		if err != nil {
			return
		}
		if bit := d.Discriminate(IQ{I: 0.3, Q: -0.7}); bit != 0 && bit != 1 {
			t.Fatalf("%s model classified into %d", d.Kind(), bit)
		}
		enc, err := EncodeDiscriminator(d)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := DecodeDiscriminator(enc)
		if err != nil {
			t.Fatalf("re-decode of %s: %v", enc, err)
		}
		if !reflect.DeepEqual(again, d) {
			t.Fatalf("round trip changed the model: %+v → %+v", d, again)
		}
	})
}
