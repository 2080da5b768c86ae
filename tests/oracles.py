"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (scalar
python, quaternions, homogeneous matrices, brute-force search) and never
calls into the code paths it validates.
"""

import math

import numpy as np

from epvr import core


def gram_schmidt_6d(r6):
    """Scalar step-by-step Gram-Schmidt of the two stored columns."""
    a = [float(v) for v in r6[0:3]]
    b = [float(v) for v in r6[3:6]]
    na = math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])
    x = [v / na for v in a]
    dot = x[0] * b[0] + x[1] * b[1] + x[2] * b[2]
    bp = [b[i] - dot * x[i] for i in range(3)]
    nb = math.sqrt(bp[0] * bp[0] + bp[1] * bp[1] + bp[2] * bp[2])
    y = [v / nb for v in bp]
    z = [
        x[1] * y[2] - x[2] * y[1],
        x[2] * y[0] - x[0] * y[2],
        x[0] * y[1] - x[1] * y[0],
    ]
    return np.array([[x[0], y[0], z[0]], [x[1], y[1], z[1]], [x[2], y[2], z[2]]])


# --- quaternions -----------------------------------------------------------


def quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    half = angle / 2.0
    return np.concatenate([[math.cos(half)], math.sin(half) * axis])


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_matrix(m):
    m = np.asarray(m, dtype=np.float64)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2
        return np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    i = int(np.argmax([m[0, 0], m[1, 1], m[2, 2]]))
    j, k = (i + 1) % 3, (i + 2) % 3
    s = math.sqrt(max(1.0 + m[i, i] - m[j, j] - m[k, k], 0.0)) * 2
    q = np.empty(4)
    q[0] = (m[k, j] - m[j, k]) / s
    q[1 + i] = 0.25 * s
    q[1 + j] = (m[j, i] + m[i, j]) / s
    q[1 + k] = (m[k, i] + m[i, k]) / s
    return q


def random_rotation(rng):
    """Uniformly random rotation matrix via a random unit quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return quat_to_matrix(q)


def quat_angle_deg(ra, rb):
    """Geodesic angle between rotation matrices via quaternion dot product."""
    qa = quat_from_matrix(ra)
    qb = quat_from_matrix(rb)
    dot = min(1.0, abs(float(np.dot(qa, qb))))
    return math.degrees(2.0 * math.acos(dot))


# --- homogeneous transforms ------------------------------------------------


def make_transform(rot, pos):
    t = np.eye(4)
    t[:3, :3] = rot
    t[:3, 3] = pos
    return t


def invert_transform(t):
    return np.linalg.inv(t)


def apply_transform(t, v):
    return (t @ np.append(v, 1.0))[:3]


def project_joints(positions, head, cam):
    """Pinhole projection of world joints through the head-mounted camera,
    one homogeneous transform and one scalar division per joint: (uv (J, 2),
    depth (J,), visible (J,)). A joint is visible in front of the camera and
    inside the image."""
    t_world_cam = make_transform(gram_schmidt_6d(head.orientation), head.position) @ (
        make_transform(cam.mount_rotation, cam.mount_position))
    t_cam_world = invert_transform(t_world_cam)
    uv, depth, visible = [], [], []
    for p in positions:
        x, y, z = (float(c) for c in apply_transform(t_cam_world, p))
        u = cam.fx * x / z + cam.cx
        v = cam.fy * y / z + cam.cy
        uv.append((u, v))
        depth.append(z)
        visible.append(z > 0.0 and 0.0 <= u < cam.width and 0.0 <= v < cam.height)
    return np.array(uv), np.array(depth), np.array(visible)


# --- skeleton ----------------------------------------------------------------


def rest_pose(joint_count=22):
    """Identity rotation at every joint of a joint_count-joint tree."""
    return core.FullBodyPose(np.tile(core.IDENTITY_6D, (joint_count, 1)))


def rest_lengths(tree):
    """Length of each bone (j, parent[j]), j = 1..J-1, from the rest offsets."""
    return np.array([math.sqrt(float(v @ v)) for v in tree.rest_offset[1:]])


def random_tree(rng, joint_count):
    """A joint_count-joint tree with each parent drawn from the joints before
    its child, and rest offsets 0.05-0.5 m long in random directions."""
    parent = [core.ROOT_PARENT] + [int(rng.integers(i)) for i in range(1, joint_count)]
    offsets = rng.standard_normal((joint_count, 3))
    offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
    offsets *= rng.uniform(0.05, 0.5, (joint_count, 1))
    return core.KinematicTree(tuple(f"j{i}" for i in range(joint_count)), parent, offsets)


def forward_chain_levels(rotations, tree, anchor_position, anchor_joint):
    """World positions (..., J, 3) and rotations (..., J, 3, 3) of forward
    kinematics, both accumulated down the tree one depth level at a time:
    each joint's world rotation is its parent's times its own, and each
    joint's position its parent's plus its rest offset turned by the
    parent's world rotation. The body is then translated so anchor_joint
    lands on anchor_position (..., 3)."""
    parent = tree.parent
    n = len(parent)
    depth = [0] * n
    for i in range(1, n):
        depth[i] = depth[parent[i]] + 1
    levels = [np.array([i for i in range(n) if depth[i] == d]) for d in range(1, max(depth) + 1)]
    locals_ = core.rot6d_to_matrix(rotations).reshape(-1, n, 3, 3).swapaxes(0, 1)
    rot = np.empty(locals_.shape)
    rot[0] = locals_[0]
    for level in levels:
        rot[level] = rot[parent[level]] @ locals_[level]
    raw = np.empty(locals_.shape[:2] + (3,))
    raw[0] = 0.0
    raw[1:] = np.einsum("kbij,kj->kbi", rot[parent[1:]], tree.rest_offset[1:])
    for level in levels:
        raw[level] += raw[parent[level]]
    positions = raw - raw[anchor_joint] + np.reshape(anchor_position, (-1, 3))
    batch = np.shape(rotations)[:-1]
    return (positions.swapaxes(0, 1).reshape(batch + (3,)),
            rot.swapaxes(0, 1).reshape(batch + (3, 3)))


def tree_neighbors(parent):
    """Adjacency lists: the parent and the children of every joint, ascending."""
    adj = [set() for _ in parent]
    for child in range(1, len(parent)):
        adj[child].add(int(parent[child]))
        adj[int(parent[child])].add(child)
    return [sorted(s) for s in adj]


# --- one-euro reference recurrence -----------------------------------------


def one_euro_reference(xs, ts, min_cutoff, beta, d_cutoff):
    """Direct transcription of the adaptive smoothing recurrence."""
    out = []
    prev_x = None
    prev_dx = 0.0
    prev_t = None
    for x, t in zip(xs, ts):
        if prev_x is None:
            out.append(x)
            prev_x, prev_t = x, t
            continue
        dt = t - prev_t
        tau_d = 1.0 / (2.0 * math.pi * d_cutoff)
        a_d = 1.0 / (1.0 + tau_d / dt)
        dx = (x - prev_x) / dt
        dx_hat = a_d * dx + (1 - a_d) * prev_dx
        cutoff = min_cutoff + beta * abs(dx_hat)
        tau = 1.0 / (2.0 * math.pi * cutoff)
        a = 1.0 / (1.0 + tau / dt)
        x_hat = a * x + (1 - a) * prev_x
        out.append(x_hat)
        prev_x, prev_dx, prev_t = x_hat, dx_hat, t
    return out


# --- kinematic pose optimization energies ----------------------------------
#
# The energies KpoSolver minimizes, evaluated term by term over the bones
# (j, tree.parent[j]) instead of through the solver's folded quadratic form.
# cfg supplies lambda_a, lambda_s, lambda_l and lambda_d; anchors maps each
# anchor joint to its tracked position.


def kpo_alignment_energy(p, initial, anchors, cfg):
    """lambda_a |p_k - anchor_k|^2 over anchor joints k plus
    lambda_s |p_j - initial_j|^2 over the others."""
    p = np.asarray(p, dtype=np.float64)
    joints = list(anchors)
    others = [j for j in range(len(p)) if j not in anchors]
    energy = 0.0
    if joints:
        d = p[joints] - np.stack([np.asarray(anchors[k], dtype=np.float64) for k in joints])
        energy += cfg.lambda_a * float(np.sum(d * d))
    if others:
        d = p[others] - initial[others]
        energy += cfg.lambda_s * float(np.sum(d * d))
    return energy


def kpo_structure_energy(p, initial, parent, cfg):
    """lambda_l (change of bone length)^2 + lambda_d |change of bone vector|^2
    over every bone, doubled because each link counts in both directions."""
    p = np.asarray(p, dtype=np.float64)
    child = np.arange(1, len(parent))
    bone = p[child] - p[parent[child]]
    bone0 = initial[child] - initial[parent[child]]
    dlen = np.linalg.norm(bone, axis=1) - np.linalg.norm(bone0, axis=1)
    ddir = bone - bone0
    return 2.0 * (cfg.lambda_l * float(np.sum(dlen * dlen)) + cfg.lambda_d * float(np.sum(ddir * ddir)))


def kpo_total_energy(p, initial, anchors, parent, cfg):
    return kpo_alignment_energy(p, initial, anchors, cfg) + kpo_structure_energy(
        p, initial, parent, cfg
    )


def kpo_gradient(p, initial, anchors, parent, cfg):
    """Gradient of kpo_total_energy, term by term."""
    p = np.asarray(p, dtype=np.float64)
    grad = np.zeros_like(p)
    for j in range(len(p)):
        if j in anchors:
            grad[j] += 2.0 * cfg.lambda_a * (p[j] - np.asarray(anchors[j], dtype=np.float64))
        else:
            grad[j] += 2.0 * cfg.lambda_s * (p[j] - initial[j])
    child = np.arange(1, len(parent))
    bone = p[child] - p[parent[child]]
    bone0 = initial[child] - initial[parent[child]]
    length = np.linalg.norm(bone, axis=1)
    dlen = length - np.linalg.norm(bone0, axis=1)
    # d/d(bone) of 2 (lambda_l dlen^2 + lambda_d |bone - bone0|^2)
    per_bone = (4.0 * cfg.lambda_l * dlen / length)[:, None] * bone + 4.0 * cfg.lambda_d * (bone - bone0)
    np.add.at(grad, child, per_bone)
    np.subtract.at(grad, parent[child], per_bone)
    return grad


def kpo_gradient_descent(initial, anchors, parent, cfg, iterations, step_size=0.1):
    """Minimize kpo_total_energy from the prediction by gradient descent with
    a backtracking line search: halve the step until the energy drops, and
    try twice the accepted step (at most step_size) on the next iteration.
    Stops after `iterations` accepted steps, or when no step of at least
    1e-12 lowers the energy. Returns (positions, energy)."""
    p = np.array(initial, dtype=np.float64)
    energy = kpo_total_energy(p, initial, anchors, parent, cfg)
    trial = step_size
    for _ in range(iterations):
        grad = kpo_gradient(p, initial, anchors, parent, cfg)
        step = trial
        while step >= 1e-12:
            candidate = p - step * grad
            cand_energy = kpo_total_energy(candidate, initial, anchors, parent, cfg)
            if cand_energy < energy:
                break
            step *= 0.5
        else:
            break
        p, energy = candidate, cand_energy
        trial = min(2.0 * step, step_size)
    return p, energy


# --- network forward pass ----------------------------------------------------
# The unfolded forward pass: every layer norm, projection and head computed
# as written in the architecture, each stream encoded on its own.


def layer_norm(x, gamma, beta, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def softmax(scores):
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def multi_head_attention(q_in, kv_in, w, heads):
    """Scaled dot-product attention with separate Q, K and V projections."""
    nq, dim = q_in.shape
    nk = kv_in.shape[0]
    head_dim = dim // heads
    q = (q_in @ w.wq + w.bq).reshape(nq, heads, head_dim).transpose(1, 0, 2)
    k = (kv_in @ w.wk + w.bk).reshape(nk, heads, head_dim).transpose(1, 0, 2)
    v = (kv_in @ w.wv + w.bv).reshape(nk, heads, head_dim).transpose(1, 0, 2)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(head_dim)
    mixed = (softmax(scores) @ v).transpose(1, 0, 2).reshape(nq, dim)
    return mixed @ w.wo + w.bo


def mlp(x, w1, b1, w2, b2):
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2


def residual_block(x, w, heads, norm, ff_norm, context=None):
    """Pre-norm attention (over `context` when given) and feed-forward."""
    h = layer_norm(x, *norm)
    x = x + multi_head_attention(h, h if context is None else context, w, heads)
    return x + mlp(layer_norm(x, *ff_norm), w.ff_w1, w.ff_b1, w.ff_w2, w.ff_b2)


def encode(window, w, heads):
    """(T, D) window -> (joints, model_dim) features of one stream."""
    x = window @ w.embed_w + w.embed_b + w.pos[:len(window)]
    for lw in w.frame_layers:
        x = residual_block(x, lw, heads, (lw.ln1_g, lw.ln1_b), (lw.ln2_g, lw.ln2_b))
    summary = mlp(x[-1], w.summary_w1, w.summary_b1, w.summary_w2, w.summary_b2)
    joints = summary.reshape(w.joint_embed.shape) + w.joint_embed
    for lw in w.joint_layers:
        joints = residual_block(joints, lw, heads, (lw.ln1_g, lw.ln1_b), (lw.ln2_g, lw.ln2_b))
    return joints


def network_rotations(motion, visual, fusion, heads, frames, keypoints=None):
    """Raw 6D rotations (J, 6) of the motion window `frames`, fused with the
    flattened keypoint window `keypoints` when given."""
    m = encode(frames, motion, heads)
    if keypoints is not None:
        n = encode(keypoints, visual, heads)
        m = residual_block(m, fusion, heads, (fusion.ln_q_g, fusion.ln_q_b),
                           (fusion.ln_ff_g, fusion.ln_ff_b),
                           context=layer_norm(n, fusion.ln_kv_g, fusion.ln_kv_b))
    root = mlp(m[0], fusion.dec_root_w1, fusion.dec_root_b1, fusion.dec_root_w2,
               fusion.dec_root_b2)
    local = mlp(m[1:], fusion.dec_local_w1, fusion.dec_local_b1, fusion.dec_local_w2,
                fusion.dec_local_b2)
    return np.vstack([root, local])
