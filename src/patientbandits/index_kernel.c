/* Whole index episodes in one C loop: see kernel.py for the contract.
 *
 * Built with -ffp-contract=off and never -ffast-math, so every operation is
 * the IEEE one CPython's float arithmetic performs, and pow, log, ceil and
 * trunc are the C library's, as for math.ceil, math.log and float **.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

enum { FIXED = 0, PARETO = 1, TWO_POINT = 2, GEOMETRIC = 3 };

/* An integer-valued delay as the environment files it: past T it is T + 1. */
static int64_t clamped(double whole, int64_t T)
{
    return whole > (double)T ? T + 1 : (int64_t)whole;
}

/* Play rounds 1..T of a fresh episode and return the censored pull count, or
 * -1 when memory runs out.
 *
 * Arm i's reward is reward_value[i] when its uniform u < reward_below[i], and
 * 0 otherwise. Its delay is delay0[i] (FIXED), ceil((1 - v) ** delay_param[i])
 * (PARETO), delay1[i] if v < delay_param[i] else delay0[i] (TWO_POINT), or
 * trunc(log(1 - v) / delay_param[i]) (GEOMETRIC), where v is the second
 * uniform; delay0 and delay1 come clamped to T + 1. Round s reads
 * uniforms[2s - 2] and uniforms[2s - 1]. Pull counts after each round in
 * marks (increasing) go to counts_at_marks, K per mark. */
int64_t play_index(int64_t K, int64_t T, int64_t init_pulls,
                   const double *reward_below, const double *reward_value,
                   const int32_t *delay_kind, const double *delay_param,
                   const int64_t *delay0, const int64_t *delay1,
                   const double *table, const double *uniforms,
                   int64_t n_marks, const int64_t *marks, int64_t *counts_at_marks)
{
    int64_t *counts = calloc((size_t)K, sizeof *counts);
    double *sums = calloc((size_t)K, sizeof *sums);
    /* The calendar: entries are pull rounds, each filed at the head of its
     * arrival round's list (head[r], 0 for none; then next[s]). Python adds a
     * round's arrivals in filing order, but every arrival of arm i adds the
     * same reward_value[i] to sums[i], so no order changes a bit. */
    int64_t *head = calloc((size_t)T + 2, sizeof *head);
    int64_t *next = malloc(((size_t)T + 1) * sizeof *next);
    int32_t *arm_of = malloc(((size_t)T + 1) * sizeof *arm_of);
    int64_t censored = -1;
    if (!counts || !sums || !head || !next || !arm_of)
        goto done;
    censored = 0;
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
                int64_t n = counts[i];
                double index = sums[i] / (double)n + table[n - 1];
                if (index > best) {
                    arm = i;
                    best = index;
                }
            }
        }
        double u = uniforms[2 * s - 2], v = uniforms[2 * s - 1];
        int64_t delay;
        switch (delay_kind[arm]) {
        case PARETO:
            delay = clamped(ceil(pow(1.0 - v, delay_param[arm])), T);
            break;
        case TWO_POINT:
            delay = v < delay_param[arm] ? delay1[arm] : delay0[arm];
            break;
        case GEOMETRIC:
            delay = clamped(trunc(log(1.0 - v) / delay_param[arm]), T);
            break;
        default:
            delay = delay0[arm];
        }
        int64_t arrival = s + (delay >= 1 ? delay : 1);
        if (arrival > T) {
            censored++;
        } else if (u < reward_below[arm]) {
            arm_of[s] = (int32_t)arm;
            next[s] = head[arrival];
            head[arrival] = s;
        }
        counts[arm]++;
        for (int64_t e = head[s + 1]; e; e = next[e])
            sums[arm_of[e]] += reward_value[arm_of[e]];
        if (mark < n_marks && s == marks[mark]) {
            for (int64_t i = 0; i < K; i++)
                counts_at_marks[mark * K + i] = counts[i];
            mark++;
        }
    }
done:
    free(counts);
    free(sums);
    free(head);
    free(next);
    free(arm_of);
    return censored;
}
