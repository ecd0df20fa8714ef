/* Whole episodes in C, one loop per policy shape: see kernel.py for the contract.
 *
 * Built with -ffp-contract=off and never -ffast-math, so every operation is
 * the IEEE one CPython's float arithmetic performs, and pow, log, sqrt, ceil
 * and trunc are the C library's, as for math.ceil, math.log, math.sqrt and
 * float **.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

enum { FIXED = 0, PARETO = 1, TWO_POINT = 2, GEOMETRIC = 3 };

/* The arms' laws. Arm i's reward is reward_value[i] when its uniform
 * u < reward_below[i], and 0 otherwise. Its delay is delay0[i] (FIXED),
 * ceil((1 - v) ** delay_param[i]) (PARETO), delay1[i] if v < delay_param[i]
 * else delay0[i] (TWO_POINT), or trunc(log(1 - v) / delay_param[i])
 * (GEOMETRIC), where v is the second uniform; delay0 and delay1 come clamped
 * to T + 1. */
typedef struct {
    int64_t T;
    const double *reward_below, *reward_value;
    const int32_t *delay_kind;
    const double *delay_param;
    const int64_t *delay0, *delay1;
} Laws;

/* An integer-valued delay as the environment files it: past T it is T + 1. */
static int64_t clamped(double whole, int64_t T)
{
    return whole > (double)T ? T + 1 : (int64_t)whole;
}

/* The arrival round of arm's pull at round s with delay uniform v: s plus
 * its filed delay, or 1 for a delay of 0. 0 when that lands past T: the pull
 * is censored and counted in *censored. */
static int64_t arrival_of(const Laws *laws, int64_t arm, int64_t s, double v, int64_t *censored)
{
    int64_t T = laws->T, delay;
    double param = laws->delay_param[arm];
    switch (laws->delay_kind[arm]) {
    case PARETO:
        delay = clamped(ceil(pow(1.0 - v, param)), T);
        break;
    case TWO_POINT:
        delay = v < param ? laws->delay1[arm] : laws->delay0[arm];
        break;
    case GEOMETRIC:
        delay = clamped(trunc(log(1.0 - v) / param), T);
        break;
    default:
        delay = laws->delay0[arm];
    }
    int64_t arrival = s + (delay >= 1 ? delay : 1);
    if (arrival > T) {
        ++*censored;
        return 0;
    }
    return arrival;
}

/* Pull counts after round s, when s is the next of the increasing marks. */
static void record(int64_t s, int64_t K, const int64_t *counts, int64_t n_marks,
                   const int64_t *marks, int64_t *mark, int64_t *counts_at_marks)
{
    if (*mark < n_marks && s == marks[*mark]) {
        for (int64_t i = 0; i < K; i++)
            counts_at_marks[*mark * K + i] = counts[i];
        ++*mark;
    }
}

/* Play rounds 1..T of a fresh optimistic-index episode and return the
 * censored pull count, or -1 when memory runs out.
 *
 * The arm is the one with fewest pulls before round 1 + K * init_pulls, then
 * the first argmax of sums[i] / n + radius at n = counts[i] pulls. The radius
 * is sqrt(2 log(2 / delta) / n) + 2 * n ** -e, summed before the mean is
 * added, as in the Python index. e is exponent, or exponents[s] at round s
 * when exponents is not NULL, and exponent is then negative: a negative
 * exponent adds no bias term. Round s reads uniforms[2s - 2] and
 * uniforms[2s - 1]. Pull counts after each round in marks (increasing) go to
 * counts_at_marks, K per mark. */
int64_t play_optimistic(int64_t K, int64_t T, int64_t init_pulls,
                        const double *reward_below, const double *reward_value,
                        const int32_t *delay_kind, const double *delay_param,
                        const int64_t *delay0, const int64_t *delay1,
                        double delta, double exponent, const double *exponents,
                        const double *uniforms,
                        int64_t n_marks, const int64_t *marks, int64_t *counts_at_marks)
{
    Laws laws = {T, reward_below, reward_value, delay_kind, delay_param, delay0, delay1};
    int64_t *counts = calloc((size_t)K, sizeof *counts);
    double *sums = calloc((size_t)K, sizeof *sums);
    /* Arm i's radius at counts[i] pulls, its bias included unless it varies
     * by round; set when the arm is pulled. */
    double *radius = calloc((size_t)K, sizeof *radius);
    /* The calendar: entries are pull rounds, each filed at the head of its
     * arrival round's list (head[r], 0 for none; then next[s]). Python adds a
     * round's arrivals in filing order, but every arrival of arm i adds the
     * same reward_value[i] to sums[i], so no order changes a bit. */
    int64_t *head = calloc((size_t)T + 2, sizeof *head);
    int64_t *next = calloc((size_t)T + 1, sizeof *next);
    int32_t *arm_of = calloc((size_t)T + 1, sizeof *arm_of);
    int64_t censored = -1;
    if (!counts || !sums || !radius || !head || !next || !arm_of)
        goto done;
    censored = 0;
    double spread = 2.0 * log(2.0 / delta);
    int64_t first_index_round = 1 + K * init_pulls, mark = 0;
    for (int64_t s = 1; s <= T; s++) {
        int64_t arm = 0;
        if (s < first_index_round) {
            for (int64_t i = 1; i < K; i++)
                if (counts[i] < counts[arm])
                    arm = i;
        } else {
            double best = -INFINITY;
            for (int64_t i = 0; i < K; i++) {
                double n = (double)counts[i], r = radius[i];
                if (exponents)
                    r = r + 2.0 * pow(n, -exponents[s]);
                double index = sums[i] / n + r;
                if (index > best) {
                    arm = i;
                    best = index;
                }
            }
        }
        double u = uniforms[2 * s - 2];
        int64_t arrival = arrival_of(&laws, arm, s, uniforms[2 * s - 1], &censored);
        if (arrival && u < reward_below[arm]) {
            arm_of[s] = (int32_t)arm;
            next[s] = head[arrival];
            head[arrival] = s;
        }
        double pulls = (double)++counts[arm];
        radius[arm] = sqrt(spread / pulls);
        if (exponent >= 0.0)
            radius[arm] = radius[arm] + 2.0 * pow(pulls, -exponent);
        for (int64_t e = head[s + 1]; e; e = next[e])
            sums[arm_of[e]] += reward_value[arm_of[e]];
        record(s, K, counts, n_marks, marks, &mark, counts_at_marks);
    }
done:
    free(counts);
    free(sums);
    free(radius);
    free(head);
    free(next);
    free(arm_of);
    return censored;
}

/* Play rounds 1..T of a fresh ducb episode with wait m (at most T + 1) and
 * de-biasing factor tau_m; return as play_optimistic does.
 *
 * Round s < m + K pulls arm s % K. Later rounds take the first argmax of
 * total / (tau_m * n) + sqrt(2 log s / (tau_m * n)), where n counts the
 * arm's pulls at rounds <= s - m and total sums their rewards of delay <= m,
 * or infinity when n is 0. The wait is fixed, so at round s the pull of
 * round s - m alone enters its arm's window; a ring of m slots holds each
 * pull's arm and whether it will count. All of an arm's nonzero rewards are
 * reward_value[i], so the total of k of them is k * reward_value[i] rounded
 * once: the exact sum the Python window query divides out. A pull counts
 * when it arrives by round s + m: its delay, which is at least 1 here, is
 * then at most m, and a censored pull enters no window in the episode. */
int64_t play_ducb(int64_t K, int64_t T, int64_t m, double tau_m,
                  const double *reward_below, const double *reward_value,
                  const int32_t *delay_kind, const double *delay_param,
                  const int64_t *delay0, const int64_t *delay1,
                  const double *uniforms,
                  int64_t n_marks, const int64_t *marks, int64_t *counts_at_marks)
{
    Laws laws = {T, reward_below, reward_value, delay_kind, delay_param, delay0, delay1};
    int64_t *counts = calloc((size_t)K, sizeof *counts);
    int64_t *window = calloc((size_t)K, sizeof *window);
    int64_t *counted = calloc((size_t)K, sizeof *counted);
    /* The pull of round s in slot s % m: 2 * arm, plus 1 when it counts. */
    int32_t *ring = calloc((size_t)m, sizeof *ring);
    int64_t censored = -1;
    if (!counts || !window || !counted || !ring)
        goto done;
    censored = 0;
    int64_t mark = 0;
    for (int64_t s = 1; s <= T; s++) {
        int32_t *slot = &ring[s % m];
        if (s > m) {
            window[*slot >> 1]++;
            counted[*slot >> 1] += *slot & 1;
        }
        int64_t arm = s % K;
        if (s >= m + K) {
            double best = -INFINITY, spread = 2.0 * log((double)s);
            arm = 0;
            for (int64_t i = 0; i < K; i++) {
                double index = INFINITY;
                if (window[i]) {
                    double scale = tau_m * (double)window[i];
                    index = (double)counted[i] * reward_value[i] / scale + sqrt(spread / scale);
                }
                if (index > best) {
                    arm = i;
                    best = index;
                }
            }
        }
        double u = uniforms[2 * s - 2];
        int64_t arrival = arrival_of(&laws, arm, s, uniforms[2 * s - 1], &censored);
        *slot = (int32_t)(2 * arm + (arrival && arrival - s <= m && u < reward_below[arm]));
        counts[arm]++;
        record(s, K, counts, n_marks, marks, &mark, counts_at_marks);
    }
done:
    free(counts);
    free(window);
    free(counted);
    free(ring);
    return censored;
}

/* Play rounds 1..T of a fresh uniform episode on the generator's raw outputs
 * raws[0..n_raws) and return as play_optimistic does, or -2 when the episode
 * would read past raws[n_raws - 1].
 *
 * Each round reads the stream as harness._Stream does. The arm is numpy's
 * integers(K): Lemire's bounded multiply m = x * K on a 32-bit half x,
 * redrawn while m's low word is below (2**32 - K) % K, and m's high word
 * taken; K = 1 draws nothing. The halves come as numpy deals them: a fresh
 * raw output's low word, its high word kept for the next draw. Then the
 * reward uniform and the delay uniform are the next two raw outputs, each
 * (raw >> 11) * 2**-53. The arm never depends on a reward, so the reward
 * uniform is skipped and the delay is filed for the censored count only. Pull
 * counts after each round in marks go to counts_at_marks, K per mark. */
int64_t play_uniform(int64_t K, int64_t T,
                     const double *reward_below, const double *reward_value,
                     const int32_t *delay_kind, const double *delay_param,
                     const int64_t *delay0, const int64_t *delay1,
                     const uint64_t *raws, int64_t n_raws,
                     int64_t n_marks, const int64_t *marks, int64_t *counts_at_marks)
{
    Laws laws = {T, reward_below, reward_value, delay_kind, delay_param, delay0, delay1};
    int64_t *counts = calloc((size_t)K, sizeof *counts);
    if (!counts)
        return -1;
    uint32_t bound = (uint32_t)K, threshold = (0u - bound) % bound, half = 0;
    int has_half = 0;
    int64_t censored = 0, mark = 0, next = 0;
    for (int64_t s = 1; s <= T; s++) {
        int64_t arm = 0;
        if (K > 1) {
            uint64_t m;
            do {
                uint32_t x = half;
                if (has_half) {
                    has_half = 0;
                } else {
                    if (next == n_raws) {
                        censored = -2;
                        goto done;
                    }
                    x = (uint32_t)raws[next];
                    half = (uint32_t)(raws[next++] >> 32);
                    has_half = 1;
                }
                m = (uint64_t)x * bound;
            } while ((uint32_t)m < threshold);
            arm = (int64_t)(m >> 32);
        }
        if (n_raws - next < 2) {
            censored = -2;
            goto done;
        }
        double v = (double)(raws[next + 1] >> 11) * 0x1.0p-53;
        next += 2;
        arrival_of(&laws, arm, s, v, &censored);
        counts[arm]++;
        record(s, K, counts, n_marks, marks, &mark, counts_at_marks);
    }
done:
    free(counts);
    return censored;
}
