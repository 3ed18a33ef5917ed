package store

// SetWriteFault installs f as the store's crash seam: it is consulted
// before every file write, and a non-nil error crashes that write
// part-way (see writeFault). nil removes it.
func SetWriteFault(f func() error) { writeFault = f }

// SetFoldMin sets the fewest journal records that trigger a fold and
// returns the previous value.
func SetFoldMin(n int) int {
	prev := foldMin
	foldMin = n
	return prev
}
