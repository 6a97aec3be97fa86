"""Static raster rendering of fields and game states.

Images are built as uint8 arrays and written as binary portable pixmaps
(P6), so output bytes depend only on the inputs: re-rendering the same
state always produces an identical file.
"""

from __future__ import annotations

import numpy as np

from .sim import GameState, PitchSpec, open_atomic

CELL_PX = 24
MARGIN_PX = 12

# diverging map endpoints for control fields; the exact value 0.5 maps to
# MID so contested cells are visibly neutral
_LOW = np.array([38, 80, 200], dtype=float)     # defending-held: blue
_MID = np.array([245, 245, 245], dtype=float)
_HIGH = np.array([205, 45, 40], dtype=float)    # attacking-held: red

_SEQ_LO = np.array([12, 14, 40], dtype=float)
_SEQ_HI = np.array([255, 220, 46], dtype=float)

_DEFENDER = np.array([30, 90, 220], dtype=np.uint8)
_KEEPER = np.array([25, 190, 210], dtype=np.uint8)
_ATTACKER = np.array([225, 60, 38], dtype=np.uint8)
_BALL = np.array([255, 255, 255], dtype=np.uint8)
_OUTLINE = np.array([70, 70, 70], dtype=np.uint8)


def diverging_rgb(t: np.ndarray) -> np.ndarray:
    """Map [0,1] to the blue-white-red ramp; t = 0.5 hits _MID exactly."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    lo = t[..., None] * 2.0
    hi = (t[..., None] - 0.5) * 2.0
    below = _LOW + (_MID - _LOW) * lo
    above = _MID + (_HIGH - _MID) * hi
    out = np.where(t[..., None] <= 0.5, below, above)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def sequential_rgb(t: np.ndarray) -> np.ndarray:
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    out = _SEQ_LO + (_SEQ_HI - _SEQ_LO) * t[..., None]
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def _canvas_shape(pitch: PitchSpec) -> tuple[int, int]:
    w = pitch.grid_m * CELL_PX + 2 * MARGIN_PX
    h = pitch.grid_n * CELL_PX + 2 * MARGIN_PX
    return h, w


def _to_px(pitch: PitchSpec, x: float, y: float) -> tuple[int, int]:
    """Pitch metres to pixel coordinates (col, row)."""
    sx = pitch.grid_m * CELL_PX / pitch.length
    sy = pitch.grid_n * CELL_PX / pitch.width
    return MARGIN_PX + int(round(x * sx)), MARGIN_PX + int(round(y * sy))


def _disc(img: np.ndarray, cx: int, cy: int, r: int, color: np.ndarray) -> None:
    h, w, _ = img.shape
    y0, y1 = max(0, cy - r), min(h, cy + r + 1)
    x0, x1 = max(0, cx - r), min(w, cx + r + 1)
    if y0 >= y1 or x0 >= x1:
        return
    ys, xs = np.ogrid[y0:y1, x0:x1]
    mask = (ys - cy) ** 2 + (xs - cx) ** 2 <= r * r
    img[y0:y1, x0:x1][mask] = color


def _line(img: np.ndarray, x0: int, y0: int, x1: int, y1: int,
          color: np.ndarray) -> None:
    """Integer line via the classic error-accumulating walk."""
    h, w, _ = img.shape
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    while True:
        if 0 <= x < w and 0 <= y < h:
            img[y, x] = color
        if x == x1 and y == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy
    return


def _rect_outline(img: np.ndarray, x0: int, y0: int, x1: int, y1: int,
                  color: np.ndarray) -> None:
    _line(img, x0, y0, x1, y0, color)
    _line(img, x0, y1, x1, y1, color)
    _line(img, x0, y0, x0, y1, color)
    _line(img, x1, y0, x1, y1, color)


def field_image(values: np.ndarray, pitch: PitchSpec, *,
                mode: str = "control") -> np.ndarray:
    """Rasterize a (grid_m, grid_n) field into an RGB canvas.

    `control` uses the diverging map on raw probabilities; `epv` and
    `overlay` use the sequential map normalized by the field maximum.
    """
    if values.shape != (pitch.grid_m, pitch.grid_n):
        raise ValueError(
            f"field {values.shape} does not match pitch grid "
            f"{(pitch.grid_m, pitch.grid_n)}")
    if mode == "control":
        colors = diverging_rgb(values)
    elif mode in ("epv", "overlay"):
        peak = float(values.max())
        colors = sequential_rgb(values / peak if peak > 0 else values)
    else:
        raise ValueError(f"unknown render mode '{mode}'")

    h, w = _canvas_shape(pitch)
    img = np.full((h, w, 3), 28, dtype=np.uint8)
    block = np.repeat(np.repeat(colors, CELL_PX, axis=0), CELL_PX, axis=1)
    # grid axis 0 is x (image columns), axis 1 is y (image rows)
    img[MARGIN_PX:h - MARGIN_PX, MARGIN_PX:w - MARGIN_PX] = \
        block.transpose(1, 0, 2)

    _draw_pitch_outline(img, pitch)
    return img


def _draw_pitch_outline(img: np.ndarray, pitch: PitchSpec) -> None:
    x0, y0 = _to_px(pitch, 0.0, 0.0)
    x1, y1 = _to_px(pitch, pitch.length, pitch.width)
    _rect_outline(img, x0, y0, x1 - 1, y1 - 1, _OUTLINE)
    xm, _ = _to_px(pitch, pitch.length / 2.0, 0.0)
    _line(img, xm, y0, xm, y1 - 1, _OUTLINE)
    gy0 = _to_px(pitch, 0.0, pitch.width / 2.0 - pitch.goal_half_width)[1]
    gy1 = _to_px(pitch, 0.0, pitch.width / 2.0 + pitch.goal_half_width)[1]
    for off in (0, 1, 2):
        _line(img, x0 + off, gy0, x0 + off, gy1, np.array([0, 0, 0], dtype=np.uint8))


def draw_players(img: np.ndarray, state: GameState) -> None:
    """Team-colored discs with velocity ticks, plus the ball."""
    pitch = state.scenario.pitch
    px_per_ms = 1.1  # velocity tick length in px per m/s
    for i in range(state.scenario.n_players):
        cx, cy = _to_px(pitch, state.positions[i, 0], state.positions[i, 1])
        if state.is_attacker[i]:
            color = _ATTACKER
        elif i == state.gk_index:
            color = _KEEPER
        else:
            color = _DEFENDER
        _disc(img, cx, cy, 6, color)
        vx, vy = state.velocities[i]
        if vx != 0.0 or vy != 0.0:
            ex = cx + int(round(vx * px_per_ms))
            ey = cy + int(round(vy * px_per_ms))
            _line(img, cx, cy, ex, ey, np.array([0, 0, 0], dtype=np.uint8))
    bx, by = _to_px(pitch, state.ball_pos[0], state.ball_pos[1])
    _disc(img, bx, by, 4, np.array([20, 20, 20], dtype=np.uint8))
    _disc(img, bx, by, 3, _BALL)


def render_scene(values: np.ndarray, pitch: PitchSpec, *, mode: str,
                 state: GameState | None = None) -> np.ndarray:
    img = field_image(values, pitch, mode=mode)
    if state is not None:
        draw_players(img, state)
    return img


def write_ppm(path: str, img: np.ndarray) -> None:
    """Binary P6 pixmap; byte-exact for identical arrays."""
    if img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("image must be an (H, W, 3) uint8 array")
    h, w, _ = img.shape
    with open_atomic(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())
