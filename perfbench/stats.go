package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest fingerprints a loss trajectory bit for bit.
func digest(losses []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, l := range losses {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(l))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// sameBits reports whether two trajectories are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// stealTicks reads the machine-wide CPU time the hypervisor gave to
// other guests (the steal column of /proc/stat, in clock ticks). ok is
// false where the kernel does not report it.
func stealTicks() (ticks uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var buf [256]byte
	n, _ := io.ReadFull(f, buf[:])
	line := buf[:n]
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	fields := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseUint(string(fields[8]), 10, 64)
	return v, err == nil
}

// leastStolen returns the values measured while the host stole the
// least CPU time: every one measured without steal, topped up with the
// least-stolen others (earliest first) to at least
// min(minCount, len(vals)).
func leastStolen(vals, steal []float64, minCount int) []float64 {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	k := 0
	for k < len(idx) && steal[idx[k]] == 0 {
		k++
	}
	k = max(k, min(minCount, len(vals)))
	out := make([]float64, k)
	for i, j := range idx[:k] {
		out[i] = vals[j]
	}
	return out
}

// peakRSSBytes reads the process's peak resident set (VmHWM).
func peakRSSBytes() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb * 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
