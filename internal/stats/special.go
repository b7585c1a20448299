package stats

import "math"

// Special functions needed by the distribution CDFs: the regularized
// incomplete gamma functions P(a,x) and Q(a,x), the regularized incomplete
// beta function I_x(a,b), and the digamma function. Implementations follow
// the classic series / continued-fraction formulations (Numerical Recipes
// style) with Lentz's algorithm for the continued fractions.

const (
	specialEps     = 1e-14
	specialMaxIter = 500
	tinyFloat      = 1e-300
)

// GammaP returns the regularized lower incomplete gamma function
// P(a, x) = gamma(a, x) / Gamma(a), for a > 0 and x >= 0.
func GammaP(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case x < a+1:
		return gammaPSeries(a, x)
	default:
		return 1 - gammaQContinued(a, x)
	}
}

// GammaQ returns the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func GammaQ(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 1
	case x < a+1:
		return 1 - gammaPSeries(a, x)
	default:
		return gammaQContinued(a, x)
	}
}

// gammaPSeries evaluates P(a,x) by its power series, accurate for x < a+1.
func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < specialMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*specialEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQContinued evaluates Q(a,x) by its continued fraction, accurate for
// x >= a+1, using modified Lentz.
func gammaQContinued(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tinyFloat
	d := 1 / b
	h := d
	for i := 1; i <= specialMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tinyFloat {
			d = tinyFloat
		}
		c = b + an/c
		if math.Abs(c) < tinyFloat {
			c = tinyFloat
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < specialEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// BetaInc returns the regularized incomplete beta function I_x(a, b) for
// a, b > 0 and 0 <= x <= 1.
func BetaInc(a, b, x float64) float64 {
	switch {
	case a <= 0 || b <= 0 || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	front := math.Exp(lgab - lga - lgb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for BetaInc by modified Lentz.
func betaCF(a, b, x float64) float64 {
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tinyFloat {
		d = tinyFloat
	}
	d = 1 / d
	h := d
	for m := 1; m <= specialMaxIter; m++ {
		m2 := 2 * float64(m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tinyFloat {
			d = tinyFloat
		}
		c = 1 + aa/c
		if math.Abs(c) < tinyFloat {
			c = tinyFloat
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tinyFloat {
			d = tinyFloat
		}
		c = 1 + aa/c
		if math.Abs(c) < tinyFloat {
			c = tinyFloat
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < specialEps {
			break
		}
	}
	return h
}

// LogFactorial returns log(n!) via lgamma.
func LogFactorial(n int) float64 {
	if n < 0 {
		return math.NaN()
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}
