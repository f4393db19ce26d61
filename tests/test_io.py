"""The byte format of every CSV writer, pinned on small hand-built inputs."""

import numpy as np
import pytest

from delaystab import io as dio
from delaystab.regions import NuMap
from delaystab.scc import SccBranch
from delaystab.simulate import KuramotoResult, Trajectory


def _branch():
    L = np.array([1 + 1j, -0.25 + 0.5j])
    return SccBranch(beta=np.array([-1.0, 1e-3]), L=L, tangent=np.full(2, np.nan + 0j),
                     theta=np.array([0.7853981633974483, 2.0344439357957027]), theta_prime=np.array([0.0, -1.5]),
                     root_index=0)


def _kuramoto():
    # 0.1+0.1j: np.abs over a complex array can round |r| differently from the scalar abs
    r = np.array([1 + 0j, -1 + 0j, 0.1 + 0.1j, 3 + 4j, 1j])
    return KuramotoResult(times=np.arange(5) / 10, r=r, phase_times=np.zeros(0), phases=np.zeros((0, 3)),
                          truncated_fraction=0.0, resampled_delays=0)


CASES = {
    "complex-trajectory-blowup": (
        dio.write_trajectory_csv,
        (Trajectory(np.array([0.0, 0.5]), np.array([[1 + 2j, -0.5 + 0j], [0.1 - 3e-20j, 2.0 + 1j]]), blowup=0.5),),
        "t,re_0,im_0,re_1,im_1\n"
        "0.0,1.0,2.0,-0.5,0.0\n"
        "0.5,0.1,-3e-20,2.0,1.0\n"
        "# blowup_at,0.5\n",
    ),
    "real-trajectory": (
        dio.write_trajectory_csv,
        (Trajectory(np.array([0.0, 0.01, 0.02]), np.array([[1.0, -2.0], [0.99, np.inf], [np.nan, -0.0]])),),
        "t,re_0,re_1\n"
        "0.0,1.0,-2.0\n"
        "0.01,0.99,inf\n"
        "0.02,nan,-0.0\n",
    ),
    "numap": (
        dio.write_numap_csv,
        (NuMap(window=(0.0, 2.0, -1.0, 1.0), resolution=(2, 2), labels=np.array([[-1, 0], [12, 0]]),
               anchor=(0j, 0, "")),),
        "re_L,im_L,nu\n"
        "0.5,-0.5,-1\n"
        "1.5,-0.5,0\n"
        "0.5,0.5,12\n"
        "1.5,0.5,0\n",
    ),
    "branch": (
        dio.write_branch_csv,
        (_branch(),),
        "beta,re_L,im_L,r,theta,theta_prime\n"
        "-1.0,1.0,1.0,1.4142135623730951,0.7853981633974483,0.0\n"
        "0.001,-0.25,0.5,0.5590169943749475,2.0344439357957027,-1.5\n",
    ),
    "heat": (
        dio.write_heat_csv,
        ("alpha", np.array([0.1, 0.2]), "T", np.array([1.0, 2.0, 3.0]),
         np.array([[0.0, -1e-7, np.inf], [np.nan, 2.5, -np.inf]])),
        "alpha,T,value\n"
        "0.1,1.0,0.0\n"
        "0.1,2.0,-1e-07\n"
        "0.1,3.0,inf\n"
        "0.2,1.0,nan\n"
        "0.2,2.0,2.5\n"
        "0.2,3.0,-inf\n",
    ),
    "phases": (
        dio.write_phases_csv,
        (np.array([0.0, 0.5]), np.array([[0.0, 3.141592653589793, -1.0], [6.5, 1e20, 0.1]])),
        "t,theta_0,theta_1,theta_2\n"
        "0.0,0.0,3.141592653589793,-1.0\n"
        "0.5,6.5,1e+20,0.1\n",
    ),
    "kuramoto": (
        dio.write_kuramoto_csv,
        (_kuramoto(),),
        "t,abs_r,arg_r\n"
        "0.0,1.0,0.0\n"
        "0.1,1.0,3.141592653589793\n"
        "0.2,0.1414213562373095,0.7853981633974483\n"
        "0.3,5.0,0.9272952180016122\n"
        "0.4,1.0,1.5707963267948966\n",
    ),
    "columns": (
        dio.write_columns_csv,
        (["re", "im"], [1.0, 2.5], np.array([1e-7, -0.0])),
        "re,im\n"
        "1.0,1e-07\n"
        "2.5,-0.0\n",
    ),
    "columns-empty": (dio.write_columns_csv, (["x"], []), "x\n"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_format_is_pinned(tmp_path, case):
    write, args, expected = CASES[case]
    path = tmp_path / "out.csv"
    write(path, *args)
    assert path.read_bytes() == expected.encode()
