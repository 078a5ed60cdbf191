package bank

// Microbenchmarks for the bank-conflict simulator's half-warp path:
//
//	go test -run - -bench BenchmarkBankTransactions -benchmem ./internal/bank/
//
// The engine calls Transactions once per active half-warp of every
// shared-memory instruction, so this is a first-order term of
// functional-simulation throughput.

import "testing"

var sinkTx int

func benchAddrs(stride int) []uint32 {
	addrs := make([]uint32, 16)
	for i := range addrs {
		addrs[i] = uint32(i * stride * 4)
	}
	return addrs
}

func BenchmarkBankTransactions(b *testing.B) {
	s, err := New(16, 4)
	if err != nil {
		b.Fatal(err)
	}
	wide, err := New(65, 4) // more than 64 banks: the general count's sort path
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name  string
		sim   *Sim
		addrs []uint32
	}{
		{"conflict-free", s, benchAddrs(1)},
		{"broadcast", s, benchAddrs(0)},
		{"4way", s, benchAddrs(4)},
		{"16way", s, benchAddrs(16)},
		{"65banks-16way", wide, benchAddrs(65)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkTx += c.sim.Transactions(c.addrs)
			}
		})
	}
}
