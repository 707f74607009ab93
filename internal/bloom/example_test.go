package bloom_test

import (
	"fmt"

	"bloomlang/internal/bloom"
)

// FalsePositiveRate evaluates the paper's §3.1 model: a 5,000-n-gram
// profile in four 16 Kbit vectors gives about five false positives per
// thousand lookups (Table 1, row 1).
func ExampleFalsePositiveRate() {
	f := bloom.FalsePositiveRate(5000, 16*1024, 4)
	fmt.Printf("%.0f per thousand\n", f*1000)
	// Output: 5 per thousand
}
