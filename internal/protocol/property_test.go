package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ninf/internal/idl"
)

// randomInterface builds a random but valid Ninf interface: a few
// scalar int inputs first (so dimension expressions have referents),
// then a mix of scalars and arrays in all modes.
func randomInterface(r *rand.Rand) *idl.Info {
	in := &idl.Info{Name: "r", Language: "go", Target: "r"}
	nScalars := 1 + r.Intn(3)
	var scalarNames []string
	for i := 0; i < nScalars; i++ {
		name := fmt.Sprintf("s%d", i)
		in.Params = append(in.Params, idl.Param{Name: name, Mode: idl.In, Type: idl.Int})
		scalarNames = append(scalarNames, name)
	}
	nRest := r.Intn(5)
	for i := 0; i < nRest; i++ {
		p := idl.Param{
			Name: fmt.Sprintf("a%d", i),
			Mode: []idl.Mode{idl.In, idl.Out, idl.InOut}[r.Intn(3)],
			Type: []idl.Type{idl.Int, idl.Double, idl.Float}[r.Intn(3)],
		}
		dims := 1 + r.Intn(2)
		for d := 0; d < dims; d++ {
			ref := scalarNames[r.Intn(len(scalarNames))]
			var e idl.Expr = idl.Ref(ref)
			if r.Intn(2) == 0 {
				e = &idl.BinOp{Op: idl.OpAdd, L: e, R: idl.Num(int64(r.Intn(3)))}
			}
			p.Dims = append(p.Dims, e)
		}
		in.Params = append(in.Params, p)
	}
	if err := idl.Check(in); err != nil {
		panic(err)
	}
	return in
}

// randomArgs builds a matching argument vector with small scalar
// values so arrays stay tiny.
func randomArgs(r *rand.Rand, in *idl.Info) []idl.Value {
	args := make([]idl.Value, len(in.Params))
	for i := range in.Params {
		p := &in.Params[i]
		if p.IsScalar() && p.Type == idl.Int {
			args[i] = int64(1 + r.Intn(4))
		}
	}
	counts, err := in.DimSizes(args)
	if err != nil {
		panic(err)
	}
	for i := range in.Params {
		p := &in.Params[i]
		if p.IsScalar() || !p.Mode.Ships(false) {
			continue
		}
		switch p.Type {
		case idl.Int:
			v := make([]int64, counts[i])
			for j := range v {
				v[j] = r.Int63n(1000) - 500
			}
			args[i] = v
		case idl.Double:
			v := make([]float64, counts[i])
			for j := range v {
				v[j] = r.NormFloat64()
			}
			args[i] = v
		case idl.Float:
			v := make([]float32, counts[i])
			for j := range v {
				v[j] = float32(r.NormFloat64())
			}
			args[i] = v
		}
	}
	return args
}

// TestRandomInterfaceRoundTrips is the protocol's end-to-end property:
// for random interfaces and arguments, the full server-side pipeline
// (encode request → decode name → decode args → encode reply → decode
// reply) preserves every shipped value and allocates out arguments at
// the right sizes.
func TestRandomInterfaceRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		info := randomInterface(r)
		args := randomArgs(r, info)

		payload, err := EncodeCallRequest(info, &CallRequest{Name: info.Name, Args: args})
		if err != nil {
			t.Fatalf("trial %d: encode: %v\n%s", trial, err, info)
		}
		name, rest, err := DecodeCallName(payload)
		if err != nil || name != info.Name {
			t.Fatalf("trial %d: name: %v %q", trial, err, name)
		}
		decoded, err := decodeArgs(info, rest)
		if err != nil {
			t.Fatalf("trial %d: decode args: %v\n%s", trial, err, info)
		}
		counts, err := info.DimSizes(args)
		if err != nil {
			t.Fatal(err)
		}
		for i := range info.Params {
			p := &info.Params[i]
			if p.Mode.Ships(false) {
				if !reflect.DeepEqual(decoded[i], args[i]) {
					t.Fatalf("trial %d: in-arg %s corrupted\n%s", trial, p.Name, info)
				}
			} else if !p.IsScalar() {
				if lv := reflect.ValueOf(decoded[i]).Len(); lv != counts[i] {
					t.Fatalf("trial %d: out-arg %s allocated %d, want %d", trial, p.Name, lv, counts[i])
				}
			}
		}

		// Server "executes" by filling out args with recognizable
		// values, then replies.
		for i := range info.Params {
			p := &info.Params[i]
			if !p.Mode.Ships(true) {
				continue
			}
			switch v := decoded[i].(type) {
			case []int64:
				for j := range v {
					v[j] = int64(i*1000 + j)
				}
			case []float64:
				for j := range v {
					v[j] = float64(i) + float64(j)/16
				}
			case []float32:
				for j := range v {
					v[j] = float32(i)
				}
			case int64:
				decoded[i] = int64(i)
			case float64:
				decoded[i] = float64(i)
			case float32:
				decoded[i] = float32(i)
			}
		}
		reply, err := EncodeCallReply(info, Timings{Enqueue: 1, Dequeue: 2, Complete: 3}, decoded)
		if err != nil {
			t.Fatalf("trial %d: encode reply: %v", trial, err)
		}
		tm, out, err := decodeReply(info, args, reply, nil)
		if err != nil {
			t.Fatalf("trial %d: decode reply: %v", trial, err)
		}
		if tm.Enqueue != 1 || tm.Complete != 3 {
			t.Fatalf("trial %d: timings %+v", trial, tm)
		}
		for i := range info.Params {
			p := &info.Params[i]
			if !p.Mode.Ships(true) {
				if out[i] != nil {
					t.Fatalf("trial %d: non-out %s present in reply", trial, p.Name)
				}
				continue
			}
			if !reflect.DeepEqual(out[i], decoded[i]) {
				t.Fatalf("trial %d: out-arg %s corrupted", trial, p.Name)
			}
		}
	}
}
