import io

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cholesky_banded
from scipy.linalg import solve as dense_solve

from flatwing import cli, qp
from flatwing import planner as pl
from oracles import active_set_qp, random_box_qp


def test_unconstrained_stationary_point():
    sol = qp.solve_qp(qp.QpProblem(np.eye(2), np.array([-1.0, -1.0])))
    assert sol.status == "solved"
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-9)


def test_active_box_bound():
    # minimize (x-2)^2 subject to x <= 1
    prob = qp.QpProblem(
        np.array([[2.0]]), np.array([-4.0]),
        np.array([[1.0]]), np.array([-np.inf]), np.array([1.0]),
    )
    sol = qp.solve_qp(prob)
    assert sol.status == "solved"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-8)
    assert sol.y[0] > 0  # upper bound active: positive dual


def test_equality_constrained_matches_direct_kkt_solve():
    # random PSD 20-var problem with 10 equality rows against the plain
    # saddle-point linear system
    rng = np.random.default_rng(11)
    n, k = 20, 10
    M = rng.normal(size=(n, n))
    Q = M @ M.T + 0.2 * np.eye(n)
    qv = rng.normal(size=n)
    A = rng.normal(size=(k, n))
    b = rng.normal(size=k)

    kkt = np.block([[Q, A.T], [A, np.zeros((k, k))]])
    ref = dense_solve(kkt, np.concatenate([-qv, b]))

    sol = qp.solve_qp(qp.QpProblem(Q, qv, A, b, b))
    assert sol.status == "solved"
    assert np.abs(sol.x - ref[:n]).max() < 1e-5


def test_reported_residuals_match_independent_recompute():
    rng = np.random.default_rng(12)
    for _ in range(10):
        prob = qp.QpProblem(*random_box_qp(rng)[:5])
        sol = qp.solve_qp(prob)
        prim, dual = qp.kkt_residuals(prob, sol.x, sol.y)
        assert abs(prim - sol.primal_residual) <= 1e-9
        assert abs(dual - sol.dual_residual) <= 1e-9


def test_solved_residuals_below_configured_tolerance():
    rng = np.random.default_rng(13)
    s = qp.QpSettings(eps_abs=1e-6, eps_rel=1e-6)
    for _ in range(10):
        Q, qv, A, lo, hi, _ = random_box_qp(rng)
        sol = qp.solve_qp(qp.QpProblem(Q, qv, A, lo, hi), s)
        assert sol.status == "solved"
        scale_p = max(np.abs(A @ sol.x).max(), 1.0)
        scale_d = max(np.abs(Q @ sol.x).max(), np.abs(qv).max(), 1.0)
        assert sol.primal_residual <= 1e-6 + 1e-6 * scale_p
        assert sol.dual_residual <= 1e-6 + 1e-6 * scale_d


def test_kkt_residuals_trivial_cases():
    prob = qp.QpProblem(np.eye(2), np.array([-1.0, 0.0]))
    prim, dual = qp.kkt_residuals(prob, np.array([1.0, 0.0]), np.zeros(0))
    assert prim == 0.0 and dual == 0.0

    prob2 = qp.QpProblem(
        np.eye(1), None, np.array([[1.0]]), np.array([2.0]), np.array([2.0])
    )
    prim, _ = qp.kkt_residuals(prob2, np.array([1.5]), np.zeros(1))
    assert prim >= 0.5 - 1e-15


def test_kkt_residuals_reject_arguments_of_the_wrong_shape():
    # A column x would broadcast Q @ x + q into a matrix and report its
    # largest entry; a scalar x has no length. Both must be refused.
    prob = qp.QpProblem(np.eye(2), np.array([-1.0, -2.0]), np.eye(2),
                        np.zeros(2), np.full(2, 1.5))
    sol = qp.solve_qp(prob)
    assert qp.kkt_residuals(prob, sol.x, sol.y)[1] <= 1e-5
    for x, y in ((sol.x[:, None], sol.y), (sol.x, sol.y[:, None]), (1.0, sol.y),
                 (sol.x, sol.y[:1])):
        with pytest.raises(ValueError, match=r"expected \(2,\) and \(2,\)"):
            qp.kkt_residuals(prob, x, y)


def test_dual_sign_convention():
    # minimize (x-2)^2 with l <= x <= u: lower-active dual <= 0, upper >= 0
    Q = np.array([[2.0]])
    A = np.array([[1.0]])
    low = qp.solve_qp(qp.QpProblem(Q, np.array([-4.0]), A, np.array([3.0]), np.array([5.0])))
    assert low.x[0] == pytest.approx(3.0, abs=1e-8)
    assert low.y[0] < 0
    up = qp.solve_qp(qp.QpProblem(Q, np.array([-4.0]), A, np.array([0.0]), np.array([1.0])))
    assert up.x[0] == pytest.approx(1.0, abs=1e-8)
    assert up.y[0] > 0


def test_objective_not_beaten_by_random_feasible_points():
    rng = np.random.default_rng(14)
    n = 6
    M = rng.normal(size=(n, n))
    Q = M @ M.T + 0.3 * np.eye(n)
    qv = rng.normal(size=n)
    lo, hi = -np.ones(n), np.ones(n)
    prob = qp.QpProblem(Q, qv, np.eye(n), lo, hi)
    sol = qp.solve_qp(prob)
    assert sol.status == "solved"
    samples = rng.uniform(lo, hi, size=(1000, n))
    objs = 0.5 * np.einsum("ij,jk,ik->i", samples, Q, samples) + samples @ qv
    assert sol.objective <= objs.min() + 1e-9


def test_warm_start_cuts_iterations():
    rng = np.random.default_rng(15)
    Q, qv, A, lo, hi, _ = random_box_qp(rng)
    prob = qp.QpProblem(Q, qv, A, lo, hi)
    cold = qp.solve_qp(prob)
    warm = qp.solve_qp(prob, warm_start=cold)
    assert warm.status == "solved"
    assert warm.iterations <= cold.iterations


def test_determinism_bitwise():
    rng = np.random.default_rng(16)
    Q, qv, A, lo, hi, _ = random_box_qp(rng)
    prob = qp.QpProblem(Q, qv, A, lo, hi)
    a = qp.solve_qp(prob)
    b = qp.solve_qp(prob)
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_infeasible_problem_detected():
    # x >= 1 and x <= -1 simultaneously
    prob = qp.QpProblem(
        np.array([[1.0]]), None,
        np.array([[1.0], [1.0]]),
        np.array([1.0, -np.inf]),
        np.array([np.inf, -1.0]),
    )
    sol = qp.solve_qp(prob)
    assert sol.status == "primal-infeasible-detected"
    # The certificate is tried at every residual check from iteration 200.
    assert sol.iterations == 200


def test_problem_validation():
    with pytest.raises(ValueError):
        qp.QpProblem(np.zeros((2, 3)), None)
    with pytest.raises(ValueError):
        qp.QpProblem(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        qp.QpProblem(np.eye(2), None, np.ones((1, 3)), [0.0], [1.0])
    with pytest.raises(ValueError):
        qp.QpProblem(np.eye(1), None, np.eye(1), [2.0], [1.0])  # l > u


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("sparse_above", [qp._SPARSE_ABOVE, -1], ids=["dense", "csr"])
def test_problem_refuses_non_finite_data(monkeypatch, sparse_above, bad):
    # The solver's LAPACK calls scan nothing, so the problem refuses a
    # non-finite entry in Q, q or A (given dense or sparse) and a NaN
    # bound, and names the array. An infinite bound only drops its side.
    monkeypatch.setattr(qp, "_SPARSE_ABOVE", sparse_above)
    good = dict(Q=np.eye(3), q=np.zeros(3), A=np.eye(3), l=-np.ones(3), u=np.ones(3))
    for name, given, what in (("Q", np.asarray, "non-finite"), ("Q", sp.csr_array, "non-finite"),
                              ("q", np.asarray, "non-finite"), ("A", np.asarray, "non-finite"),
                              ("A", sp.csr_array, "non-finite"), ("l", np.asarray, "NaN"),
                              ("u", np.asarray, "NaN")):
        data = {k: v.copy() for k, v in good.items()}
        data[name][(0, 1) if data[name].ndim == 2 else 1] = bad
        data[name] = given(data[name])
        if what == "NaN" and not np.isnan(bad):
            if (name == "l") != (bad < 0):  # l = +inf or u = -inf: an empty row
                with pytest.raises(ValueError, match="^lower bounds exceed upper bounds$"):
                    qp.QpProblem(**data)
                continue
            prob = qp.QpProblem(**data)
            assert sp.issparse(prob._A) == (sparse_above < 0)
            assert qp.solve_qp(prob).status == "solved"
            continue
        with pytest.raises(ValueError, match=f"^{name} has a {what} entry$"):
            qp.QpProblem(**data)


def test_q_symmetrized_at_construction():
    prob = qp.QpProblem(np.array([[1.0, 2.0], [0.0, 1.0]]), None)
    assert np.array_equal(prob.Q, prob.Q.T)


@pytest.mark.parametrize("form", ["dense", "csr"])
def test_problem_leaves_the_callers_arrays_writable(form, monkeypatch):
    # The problem freezes views of A, q, l and u, not the caller's arrays;
    # a CSR A is stored as CSR, as given.
    monkeypatch.setattr(qp, "_SPARSE_ABOVE", -1 if form == "csr" else 50_000)
    A = np.array([[1.0, 2.0], [0.0, 3.0]])
    if form == "csr":
        A = sp.csr_array(A)
    q, l, u = np.ones(2), np.zeros(2), np.full(2, 4.0)
    prob = qp.QpProblem(np.eye(2), q, A, l, u)
    own = [prob.q, prob.l, prob.u]
    own += [prob._A.data, prob._A.indices, prob._A.indptr] if form == "csr" else [prob._A]
    for arr in own:
        assert not arr.flags.writeable
    for arr in ([A.data, A.indices, A.indptr] if form == "csr" else [A]) + [q, l, u]:
        arr[0] = arr[0]
        assert arr.flags.writeable
    assert np.array_equal(prob.A, [[1.0, 2.0], [0.0, 3.0]])


def test_sparse_q_symmetrized_at_construction(monkeypatch):
    # Q given dense or sparse is stored in the form its solve works on and
    # symmetrized there, with the bits of the dense formula: in the CSR
    # form an entry that cancels in Q + Q' is not stored, as in
    # `sp.csr_array` of the dense result. Both views are read-only.
    rng = np.random.default_rng(3)
    Q = rng.normal(size=(6, 6)) * (rng.random((6, 6)) < 0.5)
    Q[1, 2], Q[2, 1] = 0.25, -0.25
    dense = qp.QpProblem(Q, None)._Q
    assert isinstance(qp.QpProblem(sp.csc_array(Q), None)._Q, np.ndarray)
    assert np.array_equal(qp.QpProblem(sp.csc_array(Q), None)._Q, dense)
    monkeypatch.setattr(qp, "_SPARSE_ABOVE", -1)
    want = sp.csr_array(dense)
    for given in (Q, sp.csc_array(Q)):
        prob = qp.QpProblem(given, None)
        assert prob._Q.format == "csr"
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(prob._Q, field), getattr(want, field)), field
        assert np.array_equal(prob.Q, prob.Q.T)
        with pytest.raises(ValueError):
            prob._Q.data[0] = 1.0
        with pytest.raises(ValueError):
            prob.Q[0, 0] = 1.0


@pytest.mark.parametrize("sparse_above", [qp._SPARSE_ABOVE, -1], ids=["dense", "csr"])
def test_sparse_input_solves_like_its_dense_twin(monkeypatch, sparse_above):
    # Each matrix is converted to the form its solve works on; in either
    # form the solve sees the same bits, so it gives the same answer.
    monkeypatch.setattr(qp, "_SPARSE_ABOVE", sparse_above)
    for seed in range(4):
        Q, qv, A, lo, hi, _ = random_box_qp(np.random.default_rng(seed))
        dense = qp.solve_qp(qp.QpProblem(Q, qv, A, lo, hi))
        assert dense.status == "solved"
        for twin in (qp.QpProblem(sp.coo_array(Q), qv, sp.csr_array(A), lo, hi),
                     qp.QpProblem(Q, qv, sp.csr_array(A), lo, hi)):
            assert sp.issparse(twin._Q) == sp.issparse(twin._A) == (sparse_above < 0)
            sol = qp.solve_qp(twin)
            assert sol.status == "solved"
            assert np.array_equal(sol.x, dense.x), seed


def test_non_psd_cost_raises_ill_posed():
    with pytest.raises(qp.IllPosedProblem):
        qp.solve_qp(qp.QpProblem(np.array([[-1.0]]), None))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("sparse_above", [qp._SPARSE_ABOVE, -1], ids=["dense", "csr"])
def test_saddle_cost_raises_ill_posed(monkeypatch, sparse_above, warm):
    # diag(1, -1) over the box [-1, 1]^2 has its minimum -0.5 at x = (0, +-1),
    # but x = 0 with no active row is a KKT point. The hot start polishes
    # that set, cold (no equality rows) or warm from the answer of the
    # convex twin diag(1, 1), and the point passes the residual and sign
    # tests; it used to come back `solved` with objective 0 when warm.
    monkeypatch.setattr(qp, "_SPARSE_ABOVE", sparse_above)
    A, lo, hi = np.eye(2), -np.ones(2), np.ones(2)
    twin = qp.solve_qp(qp.QpProblem(np.eye(2), None, A, lo, hi))
    assert twin.status == "solved" and not twin.x.any() and not twin.y.any()
    prob = qp.QpProblem(np.diag([1.0, -1.0]), None, A, lo, hi)
    assert sp.issparse(prob._Q) == (sparse_above < 0)
    with pytest.raises(qp.IllPosedProblem):
        qp.solve_qp(prob, warm_start=twin if warm else None)


@pytest.mark.parametrize("sparse_above", [qp._SPARSE_ABOVE, -1], ids=["dense", "csr"])
def test_semidefinite_cost_with_large_entries_solves(monkeypatch, sparse_above):
    # Q = 1e12 [[1, 1], [1, 1]] is convex but singular; over the box
    # [-1, 1]^2 with q = -2e12 (1, 1) the minimum -2e12 is at (1, 1). The
    # convexity check's shift grows with Q's diagonal: an absolute 1e-6
    # rounds away against 1e12, Q's factor fails at its second pivot, and
    # the solve raised IllPosedProblem.
    monkeypatch.setattr(qp, "_SPARSE_ABOVE", sparse_above)
    prob = qp.QpProblem(1e12 * np.ones((2, 2)), np.array([-2e12, -2e12]),
                        np.eye(2), -np.ones(2), np.ones(2))
    assert sp.issparse(prob._Q) == (sparse_above < 0)
    sol = qp.solve_qp(prob)
    assert sol.status == "solved" and sol.polished
    assert np.abs(sol.x - 1.0).max() <= 1e-9
    assert sol.objective == -2e12


@pytest.mark.parametrize("sparse_above", [qp._SPARSE_ABOVE, -1], ids=["dense", "csr"])
def test_cost_convex_only_on_the_equality_rows_raises_ill_posed(monkeypatch, sparse_above):
    # min x0^2/2 - x1^2/2 with x1 = 0 is a convex problem in x0, and ADMM's
    # factor of Q + sigma*I + A'rho A exists. A polished answer is accepted
    # only for a convex Q, so with polish on the solve raises; ADMM alone
    # still solves it.
    monkeypatch.setattr(qp, "_SPARSE_ABOVE", sparse_above)
    prob = qp.QpProblem(np.diag([1.0, -1.0]), np.array([-1.0, 0.0]),
                        np.array([[0.0, 1.0]]), [0.0], [0.0])
    with pytest.raises(qp.IllPosedProblem):
        qp.solve_qp(prob)
    plain = qp.solve_qp(prob, qp.QpSettings(polish=False))
    assert plain.status == "solved"
    assert np.abs(plain.x - [1.0, 0.0]).max() <= 1e-4


def test_cold_bench_plans_end_in_the_equality_rows_hot_start(monkeypatch):
    # Every inequality row of the bench field's plans is slack at the
    # optimum, so the polish of the equality rows alone is the optimum, in
    # the dense and in the CSR form: no Ruiz pass, KKT factorization or
    # ADMM iteration runs.
    calls, probs = [], []
    for name in ("_ruiz_equilibrate", "_KktOperator"):
        monkeypatch.setattr(qp, name, lambda *a, f=getattr(qp, name), name=name:
                            calls.append(name) or f(*a))
    solve = qp.solve_qp
    monkeypatch.setattr(qp, "solve_qp", lambda prob, *a, **k: probs.append(prob) or
                        solve(prob, *a, **k))
    results = cli.bench_planner([4, 8, 16, 32, 64, 128])
    assert calls == []
    assert {sp.issparse(prob._A) for prob in probs} == {False, True}
    s = qp.QpSettings()
    for prob, res in zip(probs, results, strict=True):
        sol = res.qp_solution
        assert sol.status == "solved" and sol.polished and sol.iterations == 0
        prim, dual = qp.kkt_residuals(prob, sol.x, sol.y)
        ax, qx, aty = prob._A @ sol.x, prob._Q @ sol.x, prob._A.T @ sol.y
        assert prim <= s.eps_abs + s.eps_rel * np.abs(ax).max()
        assert dual <= s.eps_abs + s.eps_rel * max(np.abs(qx).max(), np.abs(aty).max(),
                                                   np.abs(prob.q).max())


def test_cold_solve_falls_back_to_admm_when_the_equality_rows_are_not_enough(monkeypatch):
    # Each of these random box QPs has 4-16 active inequality rows, and
    # the equality rows' polish, with the rows it violates added, misses
    # some: its point fails the acceptance test, and ADMM, with its KKT
    # factor, finds the optimum. With polish off no hot start runs, so
    # ADMM does in any case.
    ops, kkt = [], qp._KktOperator
    monkeypatch.setattr(qp, "_KktOperator", lambda *a: ops.append(1) or kkt(*a))
    for seed in range(10):
        Q, qv, A, lo, hi, x_feas = random_box_qp(np.random.default_rng(seed))
        prob = qp.QpProblem(Q, qv, A, lo, hi)
        ops.clear()
        sol = qp.solve_qp(prob)
        assert sol.status == "solved" and sol.polished, seed
        assert sol.iterations > 0 and ops, seed
        xo, _ = active_set_qp(Q, qv, A, lo, hi, x_feas)
        assert np.abs(sol.x - xo).max() <= 1e-9, seed
        plain = qp.solve_qp(prob, qp.QpSettings(polish=False))
        assert plain.status == "solved" and plain.iterations > 0 and not plain.polished


def test_equality_rows_satisfied_tightly():
    rng = np.random.default_rng(17)
    n = 12
    M = rng.normal(size=(n, n))
    Q = M @ M.T + 0.5 * np.eye(n)
    A = rng.normal(size=(5, n))
    b = rng.normal(size=5)
    sol = qp.solve_qp(qp.QpProblem(Q, rng.normal(size=n), A, b, b))
    assert sol.status == "solved"
    assert np.abs(A @ sol.x - b).max() < 1e-9


def test_banded_structure_agrees_with_oracle(monkeypatch):
    # block-banded cost/constraints of the kind the trajectory planner emits,
    # solved in the dense form and, with the threshold at zero, in the CSR
    # form, where they take the banded Cholesky factor
    rng = np.random.default_rng(18)
    n = 60
    Q = np.zeros((n, n))
    for i in range(0, n, 6):
        B = rng.normal(size=(6, 6))
        Q[i : i + 6, i : i + 6] = B @ B.T + 0.4 * np.eye(6)
    A = np.zeros((20, n))
    for r in range(20):
        j = 3 * r
        A[r, j : j + 3] = rng.normal(size=3)
    x0 = rng.normal(size=n)
    b = A @ x0
    lo, hi = b - 0.5, b + 0.5
    xo, _ = active_set_qp(Q, None, A, lo, hi, x0)
    for sparse_above in (qp._SPARSE_ABOVE, 0):
        monkeypatch.setattr(qp, "_SPARSE_ABOVE", sparse_above)
        prob = qp.QpProblem(Q, None, A, lo, hi)
        assert sp.issparse(prob._A) == (sparse_above == 0)
        sol = qp.solve_qp(prob)
        assert sol.status == "solved"
        assert np.abs(sol.x - xo).max() < 1e-6


def test_polish_reaches_machine_precision_on_clean_instances():
    rng = np.random.default_rng(19)
    hits = 0
    for _ in range(10):
        Q, qv, A, lo, hi, _ = random_box_qp(rng)
        sol = qp.solve_qp(qp.QpProblem(Q, qv, A, lo, hi))
        if sol.polished:
            hits += 1
            assert max(sol.primal_residual, sol.dual_residual) < 1e-9
    assert hits >= 8  # polish is expected to succeed on almost all of these


def test_polished_answers_are_the_oracle_optimum():
    # At a loose tolerance ADMM converges before its active set is right.
    # A polish on a wrong active set can meet the residual tests while an
    # active multiplier has the wrong sign (seeds 82, 107, 118, 196, 205,
    # 264 and 365 here); such a point is not the optimum and must not be
    # returned as polished.
    s = qp.QpSettings(eps_abs=1e-3, eps_rel=1e-3)
    hits = 0
    for seed in range(400):
        Q, qv, A, lo, hi, x_feas = random_box_qp(np.random.default_rng(seed))
        sol = qp.solve_qp(qp.QpProblem(Q, qv, A, lo, hi), s)
        assert sol.status == "solved", seed
        if sol.polished:
            hits += 1
            xo, _ = active_set_qp(Q, qv, A, lo, hi, x_feas)
            assert np.abs(sol.x - xo).max() <= 1e-9, seed
    assert hits >= 380


def test_dump_problem_contains_full_description():
    prob = qp.QpProblem(
        np.eye(2), np.array([0.5, -0.25]),
        np.array([[1.0, 1.0]]), np.array([1.0]), np.array([2.0]),
    )
    buf = io.StringIO()
    qp.dump_problem(prob, buf)
    text = buf.getvalue()
    assert "n 2" in text and "m 1" in text
    assert "0.5" in text and "-0.25" in text


def test_dump_problem_writes_the_same_text_for_dense_and_csr_storage(monkeypatch):
    # A planner QP, with zeros in Q and A and infinite bounds, dumped from
    # each stored form; its entries rebuild the dense matrices.
    base = pl.assemble(pl.WaypointSequence(
        [[0, 0, 50], [60, 20, 50], [120, 0, 55]],
        pl.BoundaryState([0, 0, 50], [14, 0, 0], [0, 0, 0]),
        pl.BoundaryState([120, 0, 55], [14, 0, 0], [0, 0, 0])), pl.PlannerConfig())[0]
    dumps = {}
    for sparse_above in (np.inf, -1):
        monkeypatch.setattr(qp, "_SPARSE_ABOVE", sparse_above)
        prob = qp.QpProblem(base.Q, base.q, sp.csr_array(base.A), base.l, base.u)
        assert sp.issparse(prob._A) == (sparse_above < 0)
        buf = io.StringIO()
        qp.dump_problem(prob, buf)
        dumps[sparse_above] = buf.getvalue()
    assert dumps[np.inf] == dumps[-1]
    lines = dumps[-1].splitlines()
    assert lines[:3] == ["qp v2", f"n {prob.n}", f"m {prob.m}"]
    at = 3
    for name, dense in (("Q", prob.Q), ("A", prob.A)):
        head, nnz = lines[at].split()
        assert head == name and int(nnz) == np.count_nonzero(dense)
        rebuilt = np.zeros_like(dense)
        for line in lines[at + 1:at + 1 + int(nnz)]:
            r, c, v = line.split()
            rebuilt[int(r), int(c)] = float(v)
        assert np.array_equal(rebuilt, dense)
        at += 1 + int(nnz)
    assert lines[at::2] == ["q", "l", "u"]
    assert np.isinf(np.array(lines[at + 5].split(), dtype=float)).any()


def test_max_iterations_status_is_honest():
    rng = np.random.default_rng(21)
    Q, qv, A, lo, hi, _ = random_box_qp(rng)
    sol = qp.solve_qp(
        qp.QpProblem(Q, qv, A, lo, hi),
        qp.QpSettings(max_iter=3, check_every=1, polish=False),
    )
    assert sol.status == "max-iterations"
    assert sol.iterations == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kkt_solve_rejects_non_finite_right_hand_side(bad):
    rng = np.random.default_rng(4)
    # The form picks the factor: dense Cholesky for dense matrices, even
    # narrow-banded ones, and banded Cholesky for CSR matrices.
    for Q, A in ((np.eye(6), rng.normal(size=(3, 6))),
                 (np.eye(40), np.eye(40)),
                 (sp.csr_array(np.eye(40)), sp.csr_array(np.eye(40)))):
        n = Q.shape[0]
        op = qp._KktOperator(Q, A, np.full(A.shape[0], 0.1), 1e-6)
        assert op.banded == sp.issparse(A)
        rhs = np.ones(n)
        assert np.all(np.isfinite(op.solve(rhs)))
        rhs[n // 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            op.solve(rhs)


@pytest.mark.parametrize("sparse_above", [qp._SPARSE_ABOVE, -1], ids=["dense", "csr"])
def test_factor_has_the_bits_of_scipys_cholesky(monkeypatch, sparse_above):
    # One routine factors the convexity check's Q + shift*I and ADMM's
    # Q + sigma*I + A' diag(rho) A. Its factor is scipy's cho_factor (lower
    # triangle) or cholesky_banded (whole band) of the same sum, built in
    # the same order, byte for byte: on random problems and on a planner
    # QP, before and after Ruiz scaling.
    monkeypatch.setattr(qp, "_SPARSE_ABOVE", sparse_above)
    csr = sparse_above < 0
    probs = [qp.QpProblem(*random_box_qp(np.random.default_rng(seed))[:5]) for seed in range(4)]
    with monkeypatch.context() as mp:  # and a planner QP
        mp.setattr(qp, "solve_qp", lambda prob, solve=qp.solve_qp, **k:
                   probs.append(prob) or solve(prob, **k))
        cli.bench_planner([6])
    for prob in probs:
        assert sp.issparse(prob._Q) == sp.issparse(prob._A) == csr
        Qs, _, As, *_ = qp._ruiz_equilibrate(prob._Q, prob.q, prob._A, qp._SCALING_ITERS)
        rho = np.where(np.arange(prob.m) % 3 == 0, 1e2, 0.1)
        for Q, A in ((prob._Q, prob._A), (Qs, As)):
            n = Q.shape[0]
            shift = qp._SIGMA * max(1.0, np.abs(Q.diagonal()).max())
            if csr:
                band = qp._lower_band(Q)
                band[0] += shift
                K = (Q + qp._diagonal(np.full(n, qp._SIGMA), sp.csr_array)
                     + A.T @ qp._diagonal(rho, sp.csc_array) @ A)
                pairs = ((qp._cholesky(Q, shift), cholesky_banded(band, lower=True)),
                         (qp._cholesky(Q, qp._SIGMA, A, rho),
                          cholesky_banded(qp._lower_band(K), lower=True)))
            else:
                K = Q + (A.T * rho) @ A
                K[np.diag_indices(n)] += qp._SIGMA
                pairs = ((qp._cholesky(Q, shift),
                          cho_factor(Q + shift * np.eye(n), lower=True)[0]),
                         (qp._cholesky(Q, qp._SIGMA, A, rho), cho_factor(K, lower=True)[0]))
            for ours, ref in pairs:
                if not csr:
                    ours, ref = np.tril(ours), np.tril(ref)
                assert ours.shape == ref.shape
                assert ours.tobytes() == ref.tobytes()

    # An indefinite Q is refused by the convexity check with polish on and
    # by ADMM's factor with polish off, each naming the failing minor.
    prob = qp.QpProblem(np.diag([1.0, -1.0]), None)
    assert sp.issparse(prob._Q) == csr
    with pytest.raises(qp.IllPosedProblem,
                       match=r"^the leading minor of order 2 of Q \+ 1e-06\*I is not positive"):
        qp.solve_qp(prob)
    with pytest.raises(qp.IllPosedProblem,
                       match=r"order 2 of Q \+ 1e-06\*I \+ A' diag\(rho\) A is not positive"):
        qp.solve_qp(prob, qp.QpSettings(polish=False))


def test_dense_and_csr_forms_give_the_same_answer(monkeypatch):
    # Each problem is built and solved in the dense form, as its size
    # selects, and with the threshold at zero in the CSR form: Ruiz, the
    # KKT factor (dense Cholesky for the random problems, banded for the
    # planner's) and the polish all run on CSR matrices.
    pts = cli.waypoint_field(6)
    d0, d1 = pts[1] - pts[0], pts[-1] - pts[-2]
    wps = pl.WaypointSequence(
        pts,
        pl.BoundaryState(pts[0], 14.0 * d0 / np.linalg.norm(d0), np.zeros(3)),
        pl.BoundaryState(pts[-1], 14.0 * d1 / np.linalg.norm(d1), np.zeros(3)),
    )

    def problems():
        for seed in range(8):
            Q, qv, A, lo, hi, x_feas = random_box_qp(np.random.default_rng(seed))
            yield qp.QpProblem(Q, qv, A, lo, hi), x_feas
        yield pl.assemble(wps, pl.PlannerConfig())[0], None

    dense_problems = list(problems())
    with monkeypatch.context() as mp:
        mp.setattr(qp, "_SPARSE_ABOVE", 0)
        csr_problems = list(problems())
    # A solve follows the form its problem was stored in.
    for (prob, x_feas), (twin, _) in zip(dense_problems, csr_problems):
        assert isinstance(prob._A, np.ndarray) and twin._A.format == "csr"
        dense, csr = qp.solve_qp(prob), qp.solve_qp(twin)
        assert csr.status == dense.status == "solved"
        assert csr.polished
        assert np.abs(csr.x - dense.x).max() <= 1e-9
        # The planner QP has no known feasible point; the oracle starts
        # from the dense answer and must confirm it is optimal.
        xo, _ = active_set_qp(prob.Q, prob.q, prob.A, prob.l, prob.u,
                              dense.x if x_feas is None else x_feas)
        assert np.abs(csr.x - xo).max() <= 1e-9


@pytest.mark.parametrize("seed", [11, 19, 24, 44])
def test_polish_stops_admm_once_active_set_settles(seed):
    # rho far too small and never rebalanced: ADMM alone creeps toward the
    # answer and runs out of iterations, although the active set is found
    # within the first checks.
    Q, qv, A, lo, hi, x_feas = random_box_qp(np.random.default_rng(seed))
    prob = qp.QpProblem(Q, qv, A, lo, hi)
    mistuned = dict(rho=1e-4, adaptive_rho=False)
    sol = qp.solve_qp(prob, qp.QpSettings(**mistuned))
    assert sol.status == "solved" and sol.polished
    assert sol.iterations <= 100

    xo, yo = active_set_qp(Q, qv, A, lo, hi, x_feas)
    assert np.abs(sol.x - xo).max() <= 1e-9
    ax = A @ sol.x
    eq = hi - lo < 1e-9
    low, upp = (sol.y < 0) & ~eq, (sol.y > 0) & ~eq
    assert np.all(np.abs(ax[low] - lo[low]) <= 1e-9)
    assert np.all(np.abs(ax[upp] - hi[upp]) <= 1e-9)
    strict = ~eq & (np.abs(yo) > 1e-9)
    assert np.array_equal(np.sign(sol.y[strict]), np.sign(yo[strict]))

    plain = qp.solve_qp(prob, qp.QpSettings(polish=False, **mistuned))
    assert plain.status == "max-iterations"
    assert plain.iterations == qp.QpSettings().max_iter


def test_early_stop_rejects_wrong_active_sets(monkeypatch):
    # With the same mistuned settings ADMM settles on wrong active sets
    # whose polished points meet the residual tests but give a bound the
    # wrong multiplier sign. Those must not end the solve, and a rejected
    # set is not re-polished at every later check while it holds.
    calls = []
    polish = qp._polish
    monkeypatch.setattr(qp, "_polish", lambda *a: calls.append(1) or polish(*a))
    statuses = set()
    for seed in range(12):
        Q, qv, A, lo, hi, x_feas = random_box_qp(np.random.default_rng(seed))
        calls.clear()
        sol = qp.solve_qp(qp.QpProblem(Q, qv, A, lo, hi),
                          qp.QpSettings(rho=1e-4, adaptive_rho=False))
        statuses.add(sol.status)
        assert len(calls) <= 25  # against 160 residual checks
        if sol.status == "solved":
            xo, _ = active_set_qp(Q, qv, A, lo, hi, x_feas)
            assert np.abs(sol.x - xo).max() <= 1e-9, seed
    assert statuses == {"solved", "max-iterations"}


def test_residuals_computed_once_per_answer(monkeypatch):
    # Each residual check evaluates `_residuals` once on the ADMM iterate
    # and each polish once on its point. The answer keeps the residuals of
    # the check that accepted it, so none are computed after the loop, and
    # they equal `kkt_residuals` in the dense and in the CSR form.
    calls, polish = [], []
    _residuals, _polish = qp._residuals, qp._polish
    monkeypatch.setattr(qp, "_residuals", lambda *a: calls.append(1) or _residuals(*a))
    monkeypatch.setattr(qp, "_polish", lambda *a: polish.append(1) or _polish(*a))
    Q, qv, A, lo, hi, _ = random_box_qp(np.random.default_rng(11))
    cases = ((qp.QpSettings(), "solved", True),
             (qp.QpSettings(rho=1e-4, adaptive_rho=False), "solved", True),
             (qp.QpSettings(polish=False), "solved", False),
             (qp.QpSettings(max_iter=30, polish=False), "max-iterations", False))
    for sparse_above in (qp._SPARSE_ABOVE, 0):
        monkeypatch.setattr(qp, "_SPARSE_ABOVE", sparse_above)
        prob = qp.QpProblem(Q, qv, A, lo, hi)
        assert sp.issparse(prob._A) == (sparse_above == 0)
        for settings, status, polished in cases:
            calls.clear()
            polish.clear()
            sol = qp.solve_qp(prob, settings)
            assert sol.status == status and sol.polished == polished
            checks = -(-sol.iterations // settings.check_every)
            assert len(calls) == checks + len(polish)
            assert (sol.primal_residual, sol.dual_residual) == qp.kkt_residuals(prob, sol.x, sol.y)

    # Still in the CSR form: every stage reads the stored CSR matrices, so
    # with neither dense view readable the solve multiplies by no dense
    # matrix, residuals included.
    prob = qp.QpProblem(Q, qv, A, lo, hi)
    assert prob._Q.format == prob._A.format == "csr"
    for view in ("Q", "A"):
        monkeypatch.setattr(qp.QpProblem, view, property(lambda self: pytest.fail("dense view read")))
    sol = qp.solve_qp(prob, qp.QpSettings(rho=1e-4, adaptive_rho=False))
    # ADMM alone runs out of iterations here (seed 11 of
    # test_polish_stops_admm_once_active_set_settles): the polish stopped it.
    assert sol.polished and sol.iterations <= 100
    assert (sol.primal_residual, sol.dual_residual) == qp.kkt_residuals(prob, sol.x, sol.y)


@pytest.mark.parametrize("sparse_above", [qp._SPARSE_ABOVE, -1], ids=["dense", "csr"])
def test_unconstrained_problem_cold_and_warm(monkeypatch, sparse_above):
    # m = 0 runs the ADMM body, the warm start and the residuals on empty
    # constraint arrays; m*n = 0 takes the CSR form only below a zero
    # threshold.
    monkeypatch.setattr(qp, "_SPARSE_ABOVE", sparse_above)
    ops, kkt = [], qp._KktOperator
    monkeypatch.setattr(qp, "_KktOperator", lambda *a: ops.append(kkt(*a)) or ops[-1])
    rng = np.random.default_rng(5)
    M = rng.normal(size=(8, 8))
    Q, qv = M @ M.T + 0.5 * np.eye(8), rng.normal(size=8)
    prob = qp.QpProblem(Q, qv)
    assert sp.issparse(prob._A) == (sparse_above < 0)
    x_ref = dense_solve(Q, -qv)
    cold = qp.solve_qp(prob)
    warm = qp.solve_qp(prob, warm_start=cold)
    assert all(op.banded == (sparse_above < 0) for op in ops)
    assert warm.iterations <= cold.iterations
    for sol in (cold, warm):
        assert sol.status == "solved" and sol.y.shape == (0,)
        assert np.abs(sol.x - x_ref).max() <= 1e-9
        assert sol.primal_residual == 0.0
        assert (sol.primal_residual, sol.dual_residual) == qp.kkt_residuals(prob, sol.x, sol.y)


def test_settings_coerce_numeric_fields():
    s = qp.QpSettings(rho=1, eps_abs=1, max_iter=10.0, check_every=np.int64(5))
    assert isinstance(s.rho, float) and isinstance(s.eps_abs, float)
    assert type(s.max_iter) is int and type(s.check_every) is int
    # an int rho used to reach numpy's in-place float update and crash
    sol = qp.solve_qp(qp.QpProblem(np.eye(2), np.array([-1.0, -1.0]),
                                   np.eye(2), np.zeros(2), np.full(2, 0.5)),
                      qp.QpSettings(rho=1))
    assert sol.status == "solved"
    assert np.allclose(sol.x, [0.5, 0.5], atol=1e-9)


@pytest.mark.parametrize("field, value", [
    ("rho", 0.0), ("rho", -1.0), ("rho", np.nan), ("rho", np.inf),
    ("eps_abs", 0.0), ("eps_abs", np.inf), ("eps_rel", -1e-5),
    ("max_iter", 0), ("max_iter", -5), ("max_iter", 2.5), ("max_iter", np.nan),
    ("max_iter", np.inf),
    ("check_every", 0), ("check_every", -1), ("check_every", np.inf),
])
def test_settings_reject_values_that_break_the_solver(field, value):
    with pytest.raises(ValueError, match=field):
        qp.QpSettings(**{field: value})


def _perturbed(rng, Q, qv, A, lo, hi, x_feas, size=1e-4):
    # q moves, and every bound moves by A @ dx, so x_feas + dx stays feasible
    # and the equality rows stay equalities.
    dx = size * rng.normal(size=qv.shape[0])
    return (Q, qv + size * rng.normal(size=qv.shape[0]), A, lo + A @ dx, hi + A @ dx,
            x_feas + dx)


def test_hot_start_from_a_nearby_problem_skips_admm(monkeypatch):
    # A nearby problem keeps its neighbour's active set: its polish passes
    # the acceptance test before ADMM, its scaling or its KKT factor runs.
    ops, kkt = [], qp._KktOperator
    monkeypatch.setattr(qp, "_KktOperator", lambda *a: ops.append(1) or kkt(*a))
    for seed in range(10):
        rng = np.random.default_rng(seed)
        data = random_box_qp(rng)
        prev = qp.solve_qp(qp.QpProblem(*data[:5]))
        assert prev.polished, seed
        Q, qv, A, lo, hi, x_feas = _perturbed(rng, *data)
        ops.clear()
        sol = qp.solve_qp(qp.QpProblem(Q, qv, A, lo, hi), warm_start=prev)
        assert sol.status == "solved" and sol.polished, seed
        assert sol.iterations == 0 and ops == [], seed
        xo, _ = active_set_qp(Q, qv, A, lo, hi, x_feas)
        assert np.abs(sol.x - xo).max() <= 1e-9, seed
        assert (sol.primal_residual, sol.dual_residual) == qp.kkt_residuals(
            qp.QpProblem(Q, qv, A, lo, hi), sol.x, sol.y)


def test_hot_start_with_a_wrong_active_set_falls_back_to_admm():
    # With q negated the optimum mostly sits on other bounds (seeds 0, 1,
    # 2, 4, 5, 7 and 8 here; the rest share the active set). On seeds 1
    # and 4 the rows the first polish violates complete the set, and the
    # second polish is the optimum. On the other five even that set is
    # wrong: its point fails the acceptance test, and ADMM then finds the
    # optimum.
    fallbacks = 0
    for seed in range(10):
        Q, qv, A, lo, hi, x_feas = random_box_qp(np.random.default_rng(seed))
        other = qp.solve_qp(qp.QpProblem(Q, -qv, A, lo, hi))
        sol = qp.solve_qp(qp.QpProblem(Q, qv, A, lo, hi), warm_start=other)
        assert sol.status == "solved" and sol.polished, seed
        xo, _ = active_set_qp(Q, qv, A, lo, hi, x_feas)
        assert np.abs(sol.x - xo).max() <= 1e-9, seed
        fallbacks += sol.iterations > 0
    assert fallbacks == 5


def test_hot_start_adds_the_rows_its_polish_violates():
    # Seeds 1 and 4 of the test above: the negated problem's active set
    # lacks rows the optimum needs. Its polish violates them; added on the
    # side violated, they give the optimum with no ADMM iteration.
    for seed in (1, 4):
        Q, qv, A, lo, hi, x_feas = random_box_qp(np.random.default_rng(seed))
        other = qp.solve_qp(qp.QpProblem(Q, -qv, A, lo, hi))
        sol = qp.solve_qp(qp.QpProblem(Q, qv, A, lo, hi), warm_start=other)
        assert sol.status == "solved" and sol.polished, seed
        assert sol.iterations == 0, seed
        xo, _ = active_set_qp(Q, qv, A, lo, hi, x_feas)
        assert np.abs(sol.x - xo).max() <= 1e-9, seed


def test_hot_start_ignores_an_active_row_whose_bound_is_now_infinite():
    # The warm start holds x0 at its lower bound 0; the new problem drops
    # that bound. The row is not active on a side without a bound, so the
    # polish does not meet an infinite right-hand side.
    Q, q, A = np.eye(2), np.ones(2), np.eye(2)
    prev = qp.solve_qp(qp.QpProblem(Q, q, A, np.zeros(2), np.full(2, 5.0)))
    lo, hi = np.array([-np.inf, 0.0]), np.full(2, 5.0)
    sol = qp.solve_qp(qp.QpProblem(Q, q, A, lo, hi), warm_start=prev)
    assert sol.status == "solved" and sol.polished
    xo, yo = active_set_qp(Q, q, A, lo, hi, np.zeros(2))
    assert np.abs(sol.x - xo).max() <= 1e-9 and np.abs(sol.y - yo).max() <= 1e-9


def test_hot_start_keeps_infeasibility_detection():
    # x >= 1 and x <= -1: no active set passes, so ADMM runs and finds the
    # certificate, warm-started from its own earlier answer or not.
    prob = qp.QpProblem(np.array([[1.0]]), None, np.array([[1.0], [1.0]]),
                        np.array([1.0, -np.inf]), np.array([np.inf, -1.0]))
    cold = qp.solve_qp(prob)
    warm = qp.solve_qp(prob, warm_start=cold)
    assert cold.status == warm.status == "primal-infeasible-detected"
    assert cold.iterations == 200
    assert warm.iterations > 0 and not warm.polished


def test_no_hot_start_without_polish(monkeypatch):
    calls, polish = [], qp._polish
    monkeypatch.setattr(qp, "_polish", lambda *a: calls.append(1) or polish(*a))
    rng = np.random.default_rng(3)
    data = random_box_qp(rng)
    s = qp.QpSettings(polish=False)
    prev = qp.solve_qp(qp.QpProblem(*data[:5]), s)
    sol = qp.solve_qp(qp.QpProblem(*_perturbed(rng, *data)[:5]), s, warm_start=prev)
    assert sol.status == "solved" and sol.iterations > 0
    assert not sol.polished and calls == []


def test_mismatched_warm_start_is_rejected_up_front(monkeypatch):
    monkeypatch.setattr(qp, "_solve", None)  # no work may start
    prob = qp.QpProblem(np.eye(3), None, np.ones((1, 3)), [0.0], [1.0])
    other = qp.QpSolution(np.zeros(4), np.zeros(1), "solved", 0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"x \(4,\) and y \(1,\), expected \(3,\) and \(1,\)"):
        qp.solve_qp(prob, warm_start=other)


def test_dense_solves_run_on_one_blas_thread(monkeypatch):
    # The bundled OpenBLAS pools, where this build has them, read one
    # thread inside the block and their own count again after it.
    before = [get() for get, _ in qp._blas_pools()]
    with qp._one_blas_thread():
        assert all(get() == 1 for get, _ in qp._blas_pools())
    assert [get() for get, _ in qp._blas_pools()] == before

    # A solve, dense or CSR, factors on one thread and restores the
    # counts, also when it raises.
    counts = {"numpy": 4, "scipy": 3}
    monkeypatch.setattr(qp, "_blas_pools", lambda: tuple(
        (lambda k=k: counts[k], lambda v, k=k: counts.__setitem__(k, v)) for k in counts))
    seen, kkt = [], qp._KktOperator
    monkeypatch.setattr(qp, "_KktOperator", lambda *a: seen.append(dict(counts)) or kkt(*a))
    prob = qp.QpProblem(*random_box_qp(np.random.default_rng(6))[:5])
    assert qp.solve_qp(prob).status == "solved"
    assert seen and all(c == {"numpy": 1, "scipy": 1} for c in seen)
    assert counts == {"numpy": 4, "scipy": 3}
    with pytest.raises(qp.IllPosedProblem):
        qp.solve_qp(qp.QpProblem(-np.eye(3), None))
    assert counts == {"numpy": 4, "scipy": 3}
    seen.clear()
    monkeypatch.setattr(qp, "_SPARSE_ABOVE", 0)
    prob = qp.QpProblem(*random_box_qp(np.random.default_rng(6))[:5])
    assert sp.issparse(prob._A)
    assert qp.solve_qp(prob).status == "solved"
    assert seen and all(c == {"numpy": 1, "scipy": 1} for c in seen)
    assert counts == {"numpy": 4, "scipy": 3}
